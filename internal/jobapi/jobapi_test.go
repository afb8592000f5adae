package jobapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"nexsim/internal/experiments"
)

func decode(body string) (SubmitRequest, error) {
	req := httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(body))
	return DecodeSubmit(httptest.NewRecorder(), req)
}

// The 400 messages are part of the API: both tiers answer a bad submit
// with exactly these strings.
func TestDecodeSubmitErrors(t *testing.T) {
	big := `{"specs":[` + strings.Repeat(`{"bench":"x"},`, MaxBatch) + `{"bench":"x"}]}`
	cases := []struct{ body, want string }{
		{``, "bad request body: EOF"},
		{`{"specs":[]}`, "no specs submitted"},
		{`{"wait":true}`, "no specs submitted"},
		{`{"specs":[{"bench":"x","bogus":1}]}`, `bad request body: json: unknown field "bogus"`},
		{`{"specs":[{"bench":"x"}],"extra":1}`, `bad request body: json: unknown field "extra"`},
		{big, "batch of 4097 specs exceeds the 4096-spec limit"},
		{`{"specs":["` + strings.Repeat("x", MaxSubmitBody) + `"]}`, "bad request body: http: request body too large"},
	}
	for _, c := range cases {
		if _, err := decode(c.body); err == nil || err.Error() != c.want {
			t.Errorf("body %.40q: error %v, want %q", c.body, err, c.want)
		}
	}
	req, err := decode(`{"specs":[{"bench":"npb-ep.8","seed":3}],"wait":true}`)
	if err != nil || !req.Wait || len(req.Specs) != 1 || req.Specs[0].Seed != 3 {
		t.Fatalf("valid submit decoded to %+v, %v", req, err)
	}
}

// FuzzDecodeSubmit: whatever arrives on POST /jobs, decoding returns a
// request within the documented limits or an error — never a panic — and
// no spec of it normalizes to a system beyond the spec limits.
func FuzzDecodeSubmit(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decode(string(body))
		if err != nil {
			return
		}
		if n := len(req.Specs); n < 1 || n > MaxBatch {
			t.Fatalf("accepted a batch of %d specs", n)
		}
		if _, err := json.Marshal(req); err != nil {
			t.Fatalf("accepted request does not re-encode: %v", err)
		}
		for _, s := range req.Specs {
			n, err := s.Normalized()
			if err == nil && (n.Devices > experiments.MaxDevices || max(n.Cores, n.VirtualCores, n.PhysicalCores) > experiments.MaxCores ||
				n.IOTLBEntries > experiments.MaxIOTLBEntries) {
				t.Fatalf("spec normalized to %d devices, %d/%d/%d cores, %d IOTLB entries",
					n.Devices, n.Cores, n.VirtualCores, n.PhysicalCores, n.IOTLBEntries)
			}
		}
	})
}

func TestResponseEncoding(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteError(rec, http.StatusTooManyRequests, `queue "full"`)
	if rec.Code != 429 || rec.Header().Get("Content-Type") != "application/json" ||
		rec.Body.String() != `{"error":"queue \"full\""}`+"\n" {
		t.Fatalf("WriteError: %d %q %q", rec.Code, rec.Header().Get("Content-Type"), rec.Body)
	}
	rec = httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, JobPoll{ID: "abc", Status: StatusQueued})
	if rec.Code != 200 || rec.Body.String() != `{"id":"abc","status":"queued"}`+"\n" {
		t.Fatalf("WriteJSON: %d %q", rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, func() {}) // unencodable: a 500 error body, not a half-written 200
	if rec.Code != 500 || !strings.HasPrefix(rec.Body.String(), `{"error":`) {
		t.Fatalf("WriteJSON(unencodable): %d %q", rec.Code, rec.Body)
	}
}

func TestRetryAfterSecs(t *testing.T) {
	seen := map[int]bool{}
	for _, id := range []string{"", "a", "b", "c", "d", "e", "f", "g"} {
		s := RetryAfterSecs(id)
		if s < 1 || s > 3 || s != RetryAfterSecs(id) {
			t.Fatalf("RetryAfterSecs(%q) = %d, want a stable value in [1,3]", id, s)
		}
		seen[s] = true
	}
	if len(seen) < 2 {
		t.Fatalf("no spread across ids: %v", seen)
	}
}
