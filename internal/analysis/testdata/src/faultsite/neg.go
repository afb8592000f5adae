package fixture

import "nexsim/internal/faults"

// CrossOK uses the registered constant and a literal that matches a
// registered value (legal: the value, not the spelling, is the contract).
func CrossOK(in *faults.Injector) {
	in.Hit(faults.SiteDeviceDispatch)
	in.Hit("chan.send")
}

// PlanOK schedules against registered sites only.
func PlanOK() []faults.Fault {
	return []faults.Fault{
		{Site: faults.SitePoolWorker},
		{Site: "chan.recv"},
	}
}
