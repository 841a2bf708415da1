package world

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// attachTrace records the world's events into a fresh unbounded log fed
// from the telemetry bus, the world's only event channel.
func attachTrace(w *World) *trace.Log {
	log := trace.New(0)
	bus := telemetry.NewBus()
	bus.Attach(trace.Sink{Log: log})
	w.SetTelemetry(bus)
	return log
}

// TestTraceInvariantsOverFullRun drives a whole simulation with the
// recorder attached and verifies the causal invariants of the admission
// protocol end to end: every admission and refusal follows an arrival, no
// peer is both admitted and refused, audits only happen to admitted
// peers, and the log is time-ordered.
func TestTraceInvariantsOverFullRun(t *testing.T) {
	c := smallCfg()
	c.NumTrans = 15000
	c.AuditTrans = 5
	w, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	log := attachTrace(w)
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}

	if log.Len() == 0 {
		t.Fatal("no events recorded")
	}
	if violations := log.Verify(); len(violations) != 0 {
		t.Fatalf("trace invariants violated:\n%v", violations)
	}

	// The log must agree with the counters.
	m := w.Metrics()
	if got := int64(len(log.Filter(trace.Admitted))); got != m.AdmittedCoop+m.AdmittedUncoop {
		t.Fatalf("admitted events %d != counters %d", got, m.AdmittedCoop+m.AdmittedUncoop)
	}
	refusals := m.RefusedSelectiveCoop + m.RefusedSelectiveUncoop + m.RefusedRepCoop + m.RefusedRepUncoop
	if got := int64(len(log.Filter(trace.Refused))); got != refusals {
		t.Fatalf("refused events %d != counters %d", got, refusals)
	}
	if got := int64(len(log.Filter(trace.AuditOK))); got != m.AuditsSatisfied {
		t.Fatalf("audit-ok events %d != counter %d", got, m.AuditsSatisfied)
	}
	if got := int64(len(log.Filter(trace.AuditFail))); got != m.AuditsForfeited {
		t.Fatalf("audit-bad events %d != counter %d", got, m.AuditsForfeited)
	}
	if s := log.Summary(2); s == "" {
		t.Fatal("empty summary")
	}
}

// TestLendingSurvivesMessageLoss injects transport-level message loss and
// checks that the run completes with the protocol still accounting
// consistently — the redundancy argument of the paper under a harsher
// fault model than it assumed.
func TestLendingSurvivesMessageLoss(t *testing.T) {
	c := smallCfg()
	c.NumTrans = 10000
	w, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	// 20% of lending messages vanish. (Feedback reports go store-direct in
	// the simulation; the lending protocol is the messaging-dependent
	// part.)
	w.Bus().SetLoss(0.2)
	w.Bus().SetFaultRand(newFaultRand())
	log := attachTrace(w)
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}

	m := w.Metrics()
	arrivals := m.ArrivalsCoop + m.ArrivalsUncoop
	accounted := m.AdmittedCoop + m.AdmittedUncoop +
		m.RefusedSelectiveCoop + m.RefusedSelectiveUncoop +
		m.RefusedRepCoop + m.RefusedRepUncoop +
		m.RefusedNoIntroducer + m.Pending
	if accounted != arrivals {
		t.Fatalf("lossy transport broke accounting: %d arrivals, %d accounted", arrivals, accounted)
	}
	if violations := log.Verify(); len(violations) != 0 {
		t.Fatalf("trace invariants violated under loss:\n%v", violations)
	}
	// With 6 managers per side and per-message loss of 20%, effectively
	// every introduction should still land.
	if m.AdmittedCoop == 0 {
		t.Fatal("no admissions under 20% message loss")
	}
}

// newFaultRand supplies transport fault randomness decoupled from the
// world's own streams.
func newFaultRand() *rng.Source { return rng.New(12345) }
