package simserve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"nexsim/internal/experiments"
	"nexsim/internal/jobapi"
)

// Write-ahead journal for crash-safe serving: every accepted job
// appends a submit record, every answered job a done record carrying
// the canonical JobResult bytes. After a crash (kill -9 included), Open
// replays the journal: done results re-enter the cache byte-identical,
// and submits without a matching done — jobs that were queued or
// running at the moment of death — are re-executed. Determinism makes
// the replayed cache sound: a recovered result is exactly what
// re-running its spec would produce, which scripts/crash_smoke.sh
// verifies byte for byte.
//
// Record layout (little-endian):
//
//	u8  kind     (1 = submit, 2 = done)
//	u32 len(payload)
//	payload
//	32B sha256(payload)
//
// submit payload: u32 len(id) | id | canonical spec JSON
// done payload:   u8 failed | u32 len(id) | id | JobResult JSON
//
// A crash mid-append leaves a torn tail; replay verifies each record's
// checksum and truncates the journal at the first bad byte, dropping
// only the record being written when the process died. Replayed done
// records are additionally verified against their content address
// (jr.Spec.ID() == id), so a corrupted-but-checksummed entry can never
// poison the cache.

const (
	walSubmit byte = 1
	walDone   byte = 2
)

// walName is the journal's filename under the state directory.
const walName = "results.wal"

// wal is an append-only journal handle. Appends are serialized by the
// server's lock.
type wal struct {
	f *os.File
}

// walRecord is one replayed journal record.
type walRecord struct {
	kind   byte
	id     string
	failed bool
	spec   []byte // submit: canonical spec JSON
	result []byte // done: canonical JobResult JSON
}

func appendRecord(buf *bytes.Buffer, kind byte, payload []byte) {
	buf.WriteByte(kind)
	var lb [4]byte
	binary.LittleEndian.PutUint32(lb[:], uint32(len(payload)))
	buf.Write(lb[:])
	buf.Write(payload)
	sum := sha256.Sum256(payload)
	buf.Write(sum[:])
}

func submitPayload(id string, specJSON []byte) []byte {
	var b bytes.Buffer
	var lb [4]byte
	binary.LittleEndian.PutUint32(lb[:], uint32(len(id)))
	b.Write(lb[:])
	b.WriteString(id)
	b.Write(specJSON)
	return b.Bytes()
}

func donePayload(id string, failed bool, result []byte) []byte {
	var b bytes.Buffer
	if failed {
		b.WriteByte(1)
	} else {
		b.WriteByte(0)
	}
	var lb [4]byte
	binary.LittleEndian.PutUint32(lb[:], uint32(len(id)))
	b.Write(lb[:])
	b.WriteString(id)
	b.Write(result)
	return b.Bytes()
}

// parseRecords replays data, returning every intact record and the
// offset of the first torn/corrupt byte (== len(data) when clean).
func parseRecords(data []byte) (recs []walRecord, goodLen int) {
	off := 0
	for off < len(data) {
		if off+1+4 > len(data) {
			return recs, off
		}
		kind := data[off]
		plen := int(binary.LittleEndian.Uint32(data[off+1:]))
		body := off + 1 + 4
		end := body + plen + sha256.Size
		if (kind != walSubmit && kind != walDone) || plen < 5 || end > len(data) {
			return recs, off
		}
		payload := data[body : body+plen]
		sum := sha256.Sum256(payload)
		if !bytes.Equal(sum[:], data[body+plen:end]) {
			return recs, off
		}
		r, ok := parsePayload(kind, payload)
		if !ok {
			return recs, off
		}
		recs = append(recs, r)
		off = end
	}
	return recs, off
}

func parsePayload(kind byte, payload []byte) (walRecord, bool) {
	r := walRecord{kind: kind}
	if kind == walDone {
		r.failed = payload[0] != 0
		payload = payload[1:]
	}
	if len(payload) < 4 {
		return r, false
	}
	idLen := int(binary.LittleEndian.Uint32(payload))
	if 4+idLen > len(payload) {
		return r, false
	}
	r.id = string(payload[4 : 4+idLen])
	rest := append([]byte(nil), payload[4+idLen:]...)
	if kind == walDone {
		r.result = rest
	} else {
		r.spec = rest
	}
	return r, true
}

// walRecovery is what replaying a journal yields: answered results in
// journal order and still-pending specs in submission order.
type walRecovery struct {
	results []walRecord        // verified done records
	pending []experiments.Spec // submits with no done record
}

// openWAL replays (and compacts) the journal at dir/walName and returns
// an append handle positioned at its end. Every returned done record is
// verified: the JobResult parses and its spec's content address equals
// the record id.
func openWAL(dir string) (*wal, walRecovery, error) {
	path := filepath.Join(dir, walName)
	var rec walRecovery
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, rec, fmt.Errorf("simserve: wal: %w", err)
	}
	recs, _ := parseRecords(data)

	done := map[string]bool{}
	var pendingIDs []string
	pendingSpec := map[string]experiments.Spec{}
	for _, r := range recs {
		switch r.kind {
		case walDone:
			var jr jobapi.JobResult
			if err := json.Unmarshal(r.result, &jr); err != nil {
				continue
			}
			id, err := jr.Spec.ID()
			if err != nil || id != r.id {
				continue
			}
			if !done[r.id] {
				done[r.id] = true
				rec.results = append(rec.results, r)
			}
		case walSubmit:
			var sp experiments.Spec
			if err := json.Unmarshal(r.spec, &sp); err != nil {
				continue
			}
			if _, seen := pendingSpec[r.id]; !seen {
				pendingIDs = append(pendingIDs, r.id)
				pendingSpec[r.id] = sp
			}
		}
	}
	for _, id := range pendingIDs {
		if !done[id] {
			rec.pending = append(rec.pending, pendingSpec[id])
		}
	}

	// Compact: rewrite only the live records (answered results, pending
	// submits) through a temp file + rename, so the journal never grows
	// without bound and a crash during compaction keeps the old journal.
	var buf bytes.Buffer
	for _, r := range rec.results {
		appendRecord(&buf, walDone, donePayload(r.id, r.failed, r.result))
	}
	for _, id := range pendingIDs {
		if done[id] {
			continue
		}
		specJSON, err := json.Marshal(pendingSpec[id])
		if err != nil {
			continue
		}
		appendRecord(&buf, walSubmit, submitPayload(id, specJSON))
	}
	tmp, err := os.CreateTemp(dir, "wal-tmp-*")
	if err != nil {
		return nil, rec, fmt.Errorf("simserve: wal: %w", err)
	}
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmp.Name())
		return nil, rec, fmt.Errorf("simserve: wal: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmp.Name())
		return nil, rec, fmt.Errorf("simserve: wal: %w", err)
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name())
		return nil, rec, fmt.Errorf("simserve: wal: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		_ = os.Remove(tmp.Name())
		return nil, rec, fmt.Errorf("simserve: wal: %w", err)
	}

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, rec, fmt.Errorf("simserve: wal: %w", err)
	}
	return &wal{f: f}, rec, nil
}

// appendSubmit journals one accepted job. Nil-receiver safe (stateless
// servers skip journaling).
func (w *wal) appendSubmit(id string, specJSON []byte) error {
	if w == nil {
		return nil
	}
	var buf bytes.Buffer
	appendRecord(&buf, walSubmit, submitPayload(id, specJSON))
	_, err := w.f.Write(buf.Bytes())
	return err
}

// appendDone journals one answered job; the sync makes the result
// durable before the response that announces it can race a crash.
func (w *wal) appendDone(id string, failed bool, result []byte) error {
	if w == nil {
		return nil
	}
	var buf bytes.Buffer
	appendRecord(&buf, walDone, donePayload(id, failed, result))
	if _, err := w.f.Write(buf.Bytes()); err != nil {
		return err
	}
	return w.f.Sync()
}

// close releases the journal handle.
func (w *wal) close() {
	if w != nil {
		_ = w.f.Close()
	}
}
