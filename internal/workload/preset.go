package workload

import (
	"fmt"
	"os"
)

// Preset names, in the order PresetNames lists them.
const (
	PresetDiurnal          = "diurnal"
	PresetFlashCrowd       = "flash-crowd"
	PresetHeavytailCohorts = "heavytail-cohorts"
)

// PresetNames lists the built-in workload presets.
func PresetNames() []string {
	return []string{PresetDiurnal, PresetFlashCrowd, PresetHeavytailCohorts}
}

// Preset returns a fresh copy of a named built-in workload spec.
func Preset(name string) (*Spec, error) {
	switch name {
	case PresetDiurnal:
		return Diurnal(), nil
	case PresetFlashCrowd:
		return FlashCrowd(), nil
	case PresetHeavytailCohorts:
		return HeavytailCohorts(), nil
	}
	return nil, fmt.Errorf("workload: unknown preset %q (have %v)", name, PresetNames())
}

// Resolve reads a -workload argument: the path of a JSON workload spec
// file or, when no such file exists, the name of a built-in preset. A
// malformed file's error starts with its path.
func Resolve(pathOrPreset string) (*Spec, error) {
	data, err := os.ReadFile(pathOrPreset)
	if os.IsNotExist(err) {
		return Preset(pathOrPreset)
	} else if err != nil {
		return nil, err
	}
	spec, err := LoadSpec(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", pathOrPreset, err)
	}
	return spec, nil
}

// Diurnal is a repeating day/night arrival profile: a busy day plateau,
// a linear dusk ramp down, a quiet night, and a dawn ramp back up — a
// 30 000-tick cycle — plus one flash-crowd spike on the second day. The
// rates bracket the paper's λ=0.01 Table-1 default on both sides.
func Diurnal() *Spec {
	return &Spec{Rate: &Program{
		Repeat: true,
		Windows: []Window{
			{Len: 10_000, Lambda: 0.03},                  // day plateau
			{Len: 5_000, Lambda: 0.03, RampTo: f(0.003)}, // dusk ramp
			{Len: 10_000, Lambda: 0.003},                 // night
			{Len: 5_000, Lambda: 0.003, RampTo: f(0.03)}, // dawn ramp
		},
		Spikes: []Spike{
			{At: 42_000, Len: 1_000, Lambda: 0.15}, // second-day flash crowd
		},
	}}
}

// FlashCrowd is a steady base rate punctuated by two short spikes of
// 10× and 20× the base — the regime that stresses the waiting-period
// admission pipeline hardest.
func FlashCrowd() *Spec {
	return &Spec{Rate: &Program{
		Repeat:  true,
		Windows: []Window{{Len: 10_000, Lambda: 0.01}},
		Spikes: []Spike{
			{At: 15_000, Len: 2_000, Lambda: 0.1},
			{At: 40_000, Len: 1_000, Lambda: 0.2},
		},
	}}
}

// HeavytailCohorts is the behavioural-cohort preset: long-lived
// residents, the Pareto mobile-churner calibration the churn-heavytail
// scenario pinned (mean 50 000-tick sessions, 25% crashes, 40% rejoins
// after a mean 2 500-tick downtime), and short-lived freeloaders who
// demand twice their population share of transactions.
func HeavytailCohorts() *Spec {
	return &Spec{Cohorts: []Cohort{
		{
			Name: "resident", Weight: 0.2, Uncoop: f(0.05),
			SessionDist: "pareto", SessionMean: 150_000,
			CrashFrac: f(0.1), RejoinProb: f(0.7), DowntimeMean: 2_000,
		},
		{
			Name: "mobile-churner", Weight: 0.5,
			SessionDist: "pareto", SessionMean: 50_000,
			CrashFrac: f(0.25), RejoinProb: f(0.4), DowntimeMean: 2_500,
		},
		{
			Name: "freeloader", Weight: 0.3, Uncoop: f(1), Demand: 2,
			SessionDist: "exponential", SessionMean: 20_000,
			CrashFrac: f(0.5), RejoinProb: f(0.2), DowntimeMean: 5_000,
		},
	}}
}

// f is the pointer-literal helper for the preset tables.
func f(v float64) *float64 { return &v }
