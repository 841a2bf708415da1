package workload

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/churn"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestProgramRate(t *testing.T) {
	ramp := 0.02
	p := &Program{
		Windows: []Window{
			{Len: 100, Lambda: 0.01},
			{Len: 50, Lambda: 0.01, RampTo: &ramp},
			{Len: 100, Lambda: 0.02},
		},
		Spikes: []Spike{{At: 60, Len: 10, Lambda: 0.5}},
	}
	cases := []struct {
		t    float64
		want float64
	}{
		{0, 0.01},        // window 1 start
		{99, 0.01},       // window 1 end
		{100, 0.01},      // ramp start
		{125, 0.015},     // ramp midpoint
		{150, 0.02},      // window 3
		{1000, 0.02},     // past the end: hold the final rate
		{60, 0.5},        // spike start
		{69.999999, 0.5}, // inside the spike
		{70, 0.01},       // spike end is exclusive
	}
	for _, c := range cases {
		if got := p.Rate(c.t); !almost(got, c.want) {
			t.Errorf("Rate(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	if got := p.MaxRate(); !almost(got, 0.5) {
		t.Errorf("MaxRate() = %v, want 0.5 (the spike)", got)
	}
}

func TestProgramRateRepeats(t *testing.T) {
	p := &Program{
		Repeat:  true,
		Windows: []Window{{Len: 100, Lambda: 0.04}, {Len: 100, Lambda: 0.001}},
	}
	if got := p.Period(); got != 200 {
		t.Fatalf("Period() = %v, want 200", got)
	}
	for _, c := range []struct{ t, want float64 }{
		{50, 0.04}, {150, 0.001}, {250, 0.04}, {350, 0.001}, {20_050, 0.04},
	} {
		if got := p.Rate(c.t); !almost(got, c.want) {
			t.Errorf("Rate(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestProgramRampEndHeldPastNonRepeatingEnd(t *testing.T) {
	end := 0.05
	p := &Program{Windows: []Window{{Len: 100, Lambda: 0.01, RampTo: &end}}}
	if got := p.Rate(500); !almost(got, end) {
		t.Errorf("Rate past a ramped final window = %v, want the ramp target %v", got, end)
	}
	if got := p.MaxRate(); !almost(got, end) {
		t.Errorf("MaxRate() = %v, want the ramp target %v", got, end)
	}
}

func TestProgramValidate(t *testing.T) {
	cases := []struct {
		name string
		p    *Program
		want string
	}{
		{"no windows", &Program{}, "at least one window"},
		{"zero len", &Program{Windows: []Window{{Len: 0, Lambda: 0.1}}}, "Len"},
		{"negative lambda", &Program{Windows: []Window{{Len: 1, Lambda: -0.1}}}, "Lambda"},
		{"negative ramp", &Program{Windows: []Window{{Len: 1, Lambda: 0.1, RampTo: f(-1)}}}, "RampTo"},
		{"spike at negative", &Program{Windows: []Window{{Len: 1, Lambda: 0.1}}, Spikes: []Spike{{At: -1, Len: 1, Lambda: 1}}}, "At"},
		{"spike zero len", &Program{Windows: []Window{{Len: 1, Lambda: 0.1}}, Spikes: []Spike{{At: 0, Len: 0, Lambda: 1}}}, "Len"},
	}
	for _, c := range cases {
		err := c.p.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", c.name, err, c.want)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	global := churn.Params{}
	bad := []struct {
		name string
		s    *Spec
		want string
	}{
		{
			"rate and trace together",
			&Spec{
				Rate:  &Program{Windows: []Window{{Len: 1, Lambda: 0.1}}},
				Trace: []Event{{At: 0, Op: OpArrival}},
			},
			"mutually exclusive",
		},
		{
			"duplicate cohort names",
			&Spec{Cohorts: []Cohort{{Name: "a", Weight: 1}, {Name: "a", Weight: 1}}},
			"duplicate cohort name",
		},
		{
			"nameless cohort",
			&Spec{Cohorts: []Cohort{{Weight: 1}}},
			"needs a name",
		},
		{
			"rejoin without downtime",
			&Spec{Cohorts: []Cohort{{Name: "a", Weight: 1, RejoinProb: f(0.5)}}},
			"DowntimeMean",
		},
		{
			"unknown session dist",
			&Spec{Cohorts: []Cohort{{Name: "a", Weight: 1, SessionDist: "weibull"}}},
			"session distribution",
		},
		{
			"bad trace op",
			&Spec{Trace: []Event{{At: 0, Op: "login"}}},
			"unknown op",
		},
	}
	for _, c := range bad {
		err := c.s.Validate(global)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", c.name, err, c.want)
		}
	}
	var nilSpec *Spec
	if err := nilSpec.Validate(global); err != nil {
		t.Errorf("nil spec must validate, got %v", err)
	}
	if nilSpec.Active() || nilSpec.Replaying() || nilSpec.DemandWeighted() {
		t.Error("nil spec must report every capability off")
	}
	if got := nilSpec.MaxDemand(); got != 1 {
		t.Errorf("nil spec MaxDemand() = %v, want 1", got)
	}
}

func TestCohortParamsResolution(t *testing.T) {
	global := churn.Params{
		CrashFrac: 0.3, RejoinProb: 0.6, DowntimeMean: 1000,
		SessionDist: churn.SessionPareto, SessionMean: 50_000,
	}

	inherit := Cohort{Name: "a", Weight: 1}.Params(global)
	want := SessionParams{
		Dist: churn.SessionPareto, Mean: 50_000,
		CrashFrac: 0.3, RejoinProb: 0.6, DowntimeMean: 1000,
	}
	if inherit != want {
		t.Errorf("full inheritance: got %+v, want %+v", inherit, want)
	}

	override := Cohort{
		Name: "b", Weight: 1,
		SessionDist: churn.SessionUniform, SessionMean: 7,
		CrashFrac: f(0), RejoinProb: f(0), DowntimeMean: 9,
	}.Params(global)
	// The pointer overrides distinguish explicit zero from inherit.
	if override.CrashFrac != 0 || override.RejoinProb != 0 {
		t.Errorf("explicit zero overrides lost: %+v", override)
	}
	if override.Dist != churn.SessionUniform || override.Mean != 7 || override.DowntimeMean != 9 {
		t.Errorf("value overrides lost: %+v", override)
	}

	none := Cohort{Name: "c", Weight: 1, SessionDist: SessionNone}.Params(global)
	if none.Mean != 0 {
		t.Errorf("SessionDist %q must zero the mean, got %+v", SessionNone, none)
	}
}

func TestSpecDemand(t *testing.T) {
	s := &Spec{Cohorts: []Cohort{
		{Name: "a", Weight: 1},            // default demand 1
		{Name: "b", Weight: 1, Demand: 3}, // the envelope
	}}
	if !s.DemandWeighted() {
		t.Error("a cohort with Demand 3 must turn weighting on")
	}
	if got := s.MaxDemand(); got != 3 {
		t.Errorf("MaxDemand() = %v, want 3", got)
	}
	// Demand below 1 still needs weighting even though the envelope
	// stays at the default 1.
	sub := &Spec{Cohorts: []Cohort{{Name: "a", Weight: 1, Demand: 0.5}}}
	if !sub.DemandWeighted() {
		t.Error("a cohort with Demand 0.5 must turn weighting on")
	}
	if got := sub.MaxDemand(); got != 1 {
		t.Errorf("MaxDemand() with sub-unit demand = %v, want 1", got)
	}
}

func TestPlanDrawsAreKeyedAndReproducible(t *testing.T) {
	params := SessionParams{
		Dist: churn.SessionExponential, Mean: 1000,
		CrashFrac: 0.5, RejoinProb: 0.5, DowntimeMean: 100,
	}
	seed := PlanSeed(42)
	a := DrawPlan(params, PlanSource(seed, 7, 0))
	b := DrawPlan(params, PlanSource(seed, 7, 0))
	if a != b {
		t.Errorf("same (seed, ordinal, seq) must reproduce the draw: %+v vs %+v", a, b)
	}
	c := DrawPlan(params, PlanSource(seed, 7, 1))
	d := DrawPlan(params, PlanSource(seed, 8, 0))
	if a == c && a == d {
		t.Error("different ordinals/seqs should decorrelate draws")
	}
	if a.Session < 1 {
		t.Errorf("session %v below the one-tick floor", a.Session)
	}
	if a.SessionParams != params {
		t.Error("the plan must carry its parameters for later redraws")
	}

	noSession := DrawPlan(SessionParams{Dist: SessionNone, Mean: 1000, CrashFrac: 1}, PlanSource(seed, 1, 0))
	if noSession.Session != 0 {
		t.Errorf("dist %q must disable the session clock, got %v", SessionNone, noSession.Session)
	}
	if !noSession.Crash {
		t.Error("CrashFrac 1 must still draw a crash without a session clock")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	hdr := Header{Scenario: "diurnal", Seed: 61}
	events := []Event{
		{At: 10, Op: OpArrival, Class: ClassCooperative, Style: StyleNaive, Cohort: "resident",
			Plan: &Plan{SessionParams: SessionParams{Mean: 100}, Session: 42}},
		{At: 20, Op: OpDepart, Cohort: "resident", Detail: "crash"},
		{At: 35, Op: OpRejoin, Cohort: "resident"},
	}
	rec := NewRecorder(hdr)
	for _, ev := range events {
		rec.Record(ev)
	}
	data, err := rec.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	gotHdr, gotEvents, err := ReadTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if gotHdr.Format != TraceFormat || gotHdr.Scenario != "diurnal" || gotHdr.Seed != 61 {
		t.Errorf("header round trip: %+v", gotHdr)
	}
	if len(gotEvents) != len(events) {
		t.Fatalf("got %d events, want %d", len(gotEvents), len(events))
	}
	for i := range events {
		want := events[i]
		got := gotEvents[i]
		if want.Plan != nil {
			if got.Plan == nil || *got.Plan != *want.Plan {
				t.Errorf("event %d plan round trip: %+v vs %+v", i, got.Plan, want.Plan)
			}
			got.Plan, want.Plan = nil, nil
		}
		if got != want {
			t.Errorf("event %d round trip: %+v vs %+v", i, got, want)
		}
	}

	// Re-encoding the decoded trace must reproduce the bytes.
	again := NewRecorder(gotHdr)
	for _, ev := range gotEvents {
		again.Record(ev)
	}
	data2, err := again.Encode()
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("decode → re-encode is not byte-identical")
	}
}

func TestReadTraceRejectsBadInput(t *testing.T) {
	valid := `{"format":"replend-trace/v1"}
{"at":5,"op":"arrival"}
`
	cases := []struct {
		name  string
		input string
		want  string
	}{
		{"empty", "", "no header"},
		{"wrong format", `{"format":"replend-trace/v9"}`, "format"},
		{"missing header", `{"at":5,"op":"arrival"}`, "header"},
		{"unknown field", valid + `{"at":6,"op":"arrival","shoe":9}` + "\n", "shoe"},
		{"unknown op", valid + `{"at":6,"op":"teleport"}` + "\n", "unknown op"},
		{"decreasing time", valid + `{"at":1,"op":"arrival"}` + "\n", "before predecessor"},
		{"trailing garbage", `{"format":"replend-trace/v1"} nonsense`, "trailing"},
		{"truncated json", valid[:len(valid)-4], "line"},
		{"negative tick", `{"format":"replend-trace/v1"}` + "\n" + `{"at":-1,"op":"arrival"}`, "negative"},
	}
	for _, c := range cases {
		_, _, err := ReadTrace(strings.NewReader(c.input))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: ReadTrace = %v, want error containing %q", c.name, err, c.want)
		}
	}

	if _, _, err := ReadTrace(strings.NewReader(valid)); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
}

func TestPresets(t *testing.T) {
	for _, name := range PresetNames() {
		s, err := Preset(name)
		if err != nil {
			t.Fatalf("Preset(%q): %v", name, err)
		}
		if err := s.Validate(churn.Params{}); err != nil {
			t.Errorf("preset %q does not validate: %v", name, err)
		}
		if !s.Active() {
			t.Errorf("preset %q is inert", name)
		}
	}
	if _, err := Preset("nope"); err == nil {
		t.Error("unknown preset must error")
	}
	// Presets return fresh copies: mutating one must not leak.
	a, _ := Preset(PresetHeavytailCohorts)
	a.Cohorts[0].Weight = 99
	b, _ := Preset(PresetHeavytailCohorts)
	if b.Cohorts[0].Weight == 99 {
		t.Error("presets share state between calls")
	}
}

func TestResolve(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	if err := os.WriteFile(good, []byte(`{"cohorts":[{"name":"a","weight":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"cohorts":[],"bogus":1}`), 0o644); err != nil {
		t.Fatal(err)
	}

	if s, err := Resolve(good); err != nil || len(s.Cohorts) != 1 {
		t.Fatalf("Resolve(file) = %+v, %v", s, err)
	}
	if s, err := Resolve(PresetDiurnal); err != nil || s.Rate == nil {
		t.Fatalf("Resolve(preset) = %+v, %v", s, err)
	}
	if _, err := Resolve(bad); err == nil || !strings.HasPrefix(err.Error(), bad+": ") {
		t.Fatalf("malformed file error %v does not start with the path", err)
	}
	if _, err := Resolve(filepath.Join(dir, "missing.json")); err == nil || !strings.Contains(err.Error(), "unknown preset") {
		t.Fatalf("missing file and no preset: err = %v", err)
	}
}
