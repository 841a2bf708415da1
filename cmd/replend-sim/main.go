// Command replend-sim runs a single reputation-lending community
// simulation and prints a summary plus optional CSV time series.
//
// Usage:
//
//	replend-sim [flags]
//	replend-sim -scenario file.json [-runs n] [-csv out.csv]
//	replend-sim -scenario name -runs n -workers k   # local fleet
//	replend-sim -worker                             # fleet worker (stdio)
//	replend-sim -worker-connect host:port -fleet-token t
//	replend-sim scenarios list
//	replend-sim scenarios describe <name>
//	replend-sim scenarios dump <name>
//	replend-sim checkpoint info <file>
//
// The defaults are the paper's Table 1 values. Examples:
//
//	replend-sim -lambda 0.1 -ticks 50000            # Figure 1 conditions
//	replend-sim -no-introductions -policy mid-spectrum
//	replend-sim -config experiment.json -csv out.csv
//	replend-sim -scenario collusion                 # built-in by name
//	replend-sim -scenario my-workload.json -runs 10 # averaged replicas
//	replend-sim -scenario churn-steady -runs 10 -workers 4
//	replend-sim -scenario churn-steady -checkpoint-at 5000 -checkpoint-out s.ckpt
//	replend-sim -checkpoint-in s.ckpt               # resume to completion
//	replend-sim -workload diurnal -ticks 60000      # nonstationary arrivals
//	replend-sim -workload diurnal -ticks 60000 -record t.jsonl
//	replend-sim -replay t.jsonl -ticks 60000        # byte-identical re-drive
//	replend-sim -scenario churn-steady -runs 10 -workers 4 -fleet-journal b.journal
//	replend-sim -telemetry run.jsonl -progress      # stream events, live ticker
//	replend-sim -scenario churn-steady -runs 10 -workers 4 -progress
//	replend-sim -pprof localhost:6060 -ticks 500000 # CPU/heap profiles live
//
// Results go to stdout; progress and log chatter go to stderr, so stdout
// stays machine-parseable (and, in -worker mode, carries nothing but
// protocol frames). See docs/fleet.md for the distributed runner.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/baseline"
	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/topology"
	"repro/internal/workload"
	"repro/internal/world"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "replend-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) > 0 && args[0] == "scenarios" {
		return scenariosCmd(args[1:], os.Stdout)
	}
	if len(args) > 0 && args[0] == "checkpoint" {
		return checkpointCmd(args[1:], os.Stdout)
	}
	fs := flag.NewFlagSet("replend-sim", flag.ContinueOnError)
	var (
		configPath = fs.String("config", "", "JSON configuration file (fields default to Table 1)")
		scenPath   = fs.String("scenario", "", "scenario file (or built-in name) to execute instead of a flag-built config")
		runs       = fs.Int("runs", 1, "with -scenario: seed-offset replicas to run and aggregate")
		numInit    = fs.Int("init", 500, "initial cooperative peers")
		ticks      = fs.Int64("ticks", 500000, "transactions (= simulation time units)")
		lambda     = fs.Float64("lambda", 0.01, "new-peer Poisson arrival rate per tick")
		fracUncoop = fs.Float64("frac-uncoop", 0.25, "fraction of arrivals that are uncooperative")
		fracNaive  = fs.Float64("frac-naive", 0.3, "fraction of cooperative peers that are naive introducers")
		errSel     = fs.Float64("err-sel", 0.10, "selective introducer error rate")
		topo       = fs.String("topology", "powerlaw", "topology: random or powerlaw")
		wait       = fs.Int64("wait", 1000, "introduction waiting period T")
		auditTrans = fs.Int("audit-trans", 20, "completed transactions before the newcomer audit")
		introAmt   = fs.Float64("intro-amt", 0.1, "reputation lent per introduction")
		reward     = fs.Float64("reward", 0.02, "reward for introducing a cooperative peer")
		seed       = fs.Uint64("seed", 1, "random seed")
		noIntro    = fs.Bool("no-introductions", false, "open admission instead of reputation lending")
		nullSign   = fs.Bool("null-sign", false, "replace Ed25519 signing with cheap null identities (fidelity opt-out for huge sweeps)")
		mu         = fs.Float64("mu", 0, "membership departure rate per tick (0 = the paper's model, no departures)")
		stakeTO    = fs.Int64("stake-timeout", 0, "audit deadline in ticks for admission stakes: pending stakes are refunded to survivors (or stranded), offline peers' stake records expire under the same TTL; 0 disables")
		policyName = fs.String("policy", "mid-spectrum", "bootstrap policy with -no-introductions: complaints-based, positive-only, mid-spectrum, fixed-credit")
		csvPath    = fs.String("csv", "", "write population/reputation time series as CSV to this file")
		wkArg      = fs.String("workload", "", "workload spec overriding the config's: a JSON file or a built-in preset (diurnal, flash-crowd, heavytail-cohorts)")
		recPath    = fs.String("record", "", "write the run's workload trace (arrivals, departures, rejoins) to this JSONL file for later -replay; single in-process run only")
		repPath    = fs.String("replay", "", "re-drive arrivals from a recorded trace file instead of a generator")

		worker      = fs.Bool("worker", false, "run as a fleet worker on stdin/stdout (spawned by a coordinator; stdout carries only protocol frames)")
		workerConn  = fs.String("worker-connect", "", "join a remote fleet coordinator at this host:port as a worker")
		fleetToken  = fs.String("fleet-token", "", "shared token gating remote fleet joins (both sides)")
		workers     = fs.Int("workers", 0, "with -scenario and -runs: shard replicas across this many local worker processes")
		fleetListen = fs.String("fleet-listen", "", "with -workers: also accept remote workers on this host:port")
		journal     = fs.String("fleet-journal", "", "with -workers: coordinator crash journal; a restarted coordinator reopening the same path re-dispatches only incomplete replicas")

		ckptOut = fs.String("checkpoint-out", "", "run to -checkpoint-at, write the sealed state here and exit (single run or scenario)")
		ckptAt  = fs.Int64("checkpoint-at", 0, "tick to capture the -checkpoint-out state at")
		ckptIn  = fs.String("checkpoint-in", "", "resume a checkpoint file to completion instead of starting fresh")

		telemPath = fs.String("telemetry", "", "stream the run's trace events and metric samples as JSONL to this file (- for stdout); single in-process runs only")
		progress  = fs.Bool("progress", false, "live progress on stderr: a run ticker (tick, population, record rate, RSS), or the per-worker table with a fleet")
		pprofAddr = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for the duration of the run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pprofAddr != "" {
		if err := startPprof(*pprofAddr); err != nil {
			return err
		}
	}
	ob := obs{telemetryPath: *telemPath, progress: *progress}
	if *worker {
		return fleet.ServeWorker(os.Stdin, os.Stdout, fleet.WorkerOptions{Logf: logf})
	}
	if *workerConn != "" {
		logf("joining fleet coordinator at %s", *workerConn)
		return fleet.DialWorker(*workerConn, *fleetToken, fleet.WorkerOptions{Logf: logf})
	}
	wkOver, err := workloadOverride(*wkArg, *repPath)
	if err != nil {
		return err
	}
	if *telemPath != "" && (*runs > 1 || *workers > 0 || *fleetListen != "" || *ckptOut != "") {
		return fmt.Errorf("-telemetry streams one in-process run; it is mutually exclusive with -runs > 1, fleet flags and -checkpoint-out")
	}
	if *progress && *ckptOut != "" {
		return fmt.Errorf("-progress tracks a full run; it is mutually exclusive with -checkpoint-out")
	}
	if *progress && *runs > 1 && *workers == 0 && *fleetListen == "" {
		return fmt.Errorf("-progress with -runs > 1 renders the fleet table; give it a fleet with -workers")
	}
	if *recPath != "" && (*runs > 1 || *workers > 0 || *fleetListen != "" || *ckptOut != "" || *ckptIn != "") {
		return fmt.Errorf("-record captures a single uninterrupted in-process run; it is mutually exclusive with -runs > 1, fleet flags and checkpointing")
	}
	if *ckptIn != "" {
		if *scenPath != "" || *configPath != "" || *ckptOut != "" {
			return fmt.Errorf("-checkpoint-in resumes a finished state description; it is mutually exclusive with -scenario, -config and -checkpoint-out")
		}
		if wkOver != nil {
			return fmt.Errorf("-checkpoint-in resumes a sealed state; it is mutually exclusive with -workload and -replay")
		}
		if *workers > 0 || *fleetListen != "" {
			return fmt.Errorf("-checkpoint-in runs in-process; it takes no fleet flags")
		}
		return resumeCheckpoint(*ckptIn, *csvPath, ob, os.Stdout)
	}
	if *ckptOut != "" && *ckptAt <= 0 {
		return fmt.Errorf("-checkpoint-out needs -checkpoint-at <tick> > 0")
	}
	if *scenPath != "" {
		if *configPath != "" {
			return fmt.Errorf("-scenario and -config are mutually exclusive")
		}
		if *ckptOut != "" {
			if *runs > 1 || *workers > 0 || *fleetListen != "" {
				return fmt.Errorf("-checkpoint-out captures a single run; it is mutually exclusive with -runs > 1 and fleet flags")
			}
			spec, err := loadScenario(*scenPath)
			if err != nil {
				return err
			}
			if wkOver != nil {
				spec.Base.Workload = wkOver
			}
			return writeScenarioCheckpoint(spec, *ckptAt, *ckptOut)
		}
		return runScenario(*scenPath, *runs, *csvPath, *workers, *fleetListen, *fleetToken, *journal, wkOver, *recPath, ob, os.Stdout)
	}
	if *workers > 0 || *fleetListen != "" {
		return fmt.Errorf("-workers and -fleet-listen need -scenario (only replica sweeps shard)")
	}
	if *journal != "" {
		return fmt.Errorf("-fleet-journal needs a fleet (-workers or -fleet-listen)")
	}

	cfg := config.Default()
	if *configPath != "" {
		data, err := os.ReadFile(*configPath)
		if err != nil {
			return err
		}
		cfg, err = config.Load(data)
		if err != nil {
			return err
		}
	} else {
		kind, err := topology.ParseKind(*topo)
		if err != nil {
			return err
		}
		cfg.NumInit = *numInit
		cfg.NumTrans = *ticks
		cfg.Lambda = *lambda
		cfg.FracUncoop = *fracUncoop
		cfg.FracNaive = *fracNaive
		cfg.ErrSel = *errSel
		cfg.Topology = kind
		cfg.WaitPeriod = *wait
		cfg.AuditTrans = *auditTrans
		cfg.IntroAmt = *introAmt
		cfg.Reward = *reward
		cfg.Seed = *seed
		cfg.RequireIntroductions = !*noIntro
		cfg.NullSign = *nullSign
		cfg.StakeTimeout = *stakeTO
		if *mu > 0 {
			// The flag-built churn process uses the steady-state defaults;
			// scenario files expose the full parameter set.
			cfg.Churn.Mu = *mu
			cfg.Churn.CrashFrac = 0.25
			cfg.Churn.RejoinProb = 0.4
			cfg.Churn.DowntimeMean = 2_500
		}
	}
	if wkOver != nil {
		cfg.Workload = wkOver
	}

	w, err := world.New(cfg)
	if err != nil {
		return err
	}
	if !cfg.RequireIntroductions {
		pol, err := policyByName(*policyName)
		if err != nil {
			return err
		}
		w.SetPolicy(pol)
	}
	if *ckptOut != "" {
		return writeWorldCheckpoint(w, *ckptAt, *ckptOut)
	}
	var rec *workload.Recorder
	if *recPath != "" {
		rec = workload.NewRecorder(workload.Header{Seed: cfg.Seed})
		w.SetWorkloadRecorder(rec)
	}
	finishObs, err := ob.attach(w, "replend-sim")
	if err != nil {
		return err
	}
	if err := w.Run(); err != nil {
		return err
	}
	if err := finishObs(); err != nil {
		return err
	}

	printSummary(w)
	if rec != nil {
		if err := writeTrace(*recPath, rec); err != nil {
			return err
		}
	}
	if *csvPath != "" {
		m := w.Metrics()
		csv := metrics.CSV(m.CoopCount, m.UncoopCount, m.CoopReputation)
		if err := os.WriteFile(*csvPath, []byte(csv), 0o644); err != nil {
			return err
		}
		logf("series written to %s", *csvPath)
	}
	return nil
}

// workloadOverride resolves the -workload and -replay flags into one
// spec: -workload names a JSON spec file or a built-in preset, -replay
// swaps the generator for a recorded trace's events. A trace cannot
// combine with a rate program (the trace already fixes every arrival).
func workloadOverride(wkArg, repPath string) (spec *workload.Spec, err error) {
	if wkArg != "" {
		if spec, err = workload.Resolve(wkArg); err != nil {
			return nil, err
		}
	}
	if repPath == "" {
		return spec, nil
	}
	if spec != nil && spec.Rate != nil {
		return nil, fmt.Errorf("-replay re-drives recorded arrivals; it is mutually exclusive with a -workload rate program")
	}
	f, err := os.Open(repPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	_, events, err := workload.ReadTrace(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", repPath, err)
	}
	if spec == nil {
		spec = &workload.Spec{}
	}
	spec.Trace = events
	return spec, nil
}

// writeTrace seals a recorded run's workload events to a JSONL file.
func writeTrace(path string, rec *workload.Recorder) error {
	data, err := rec.Encode()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	logf("trace with %d events written to %s", len(rec.Events()), path)
	return nil
}

// loadScenario resolves a -scenario argument: a path to a JSON spec, or
// the name of a built-in.
func loadScenario(nameOrPath string) (*scenario.Spec, error) {
	if data, err := os.ReadFile(nameOrPath); err == nil {
		return scenario.Load(data)
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	return scenario.Get(nameOrPath)
}

// runScenario executes a scenario (optionally replicated, optionally on
// a worker fleet) and prints the summary; with -csv it writes the
// spec-selected series of the primary run (the spec's own seed). A
// non-nil wkOver replaces the spec's workload block; a non-empty
// recPath exports the (single) run's workload trace.
func runScenario(nameOrPath string, runs int, csvPath string, workers int, fleetListen, fleetToken, journal string, wkOver *workload.Spec, recPath string, ob obs, out io.Writer) error {
	spec, err := loadScenario(nameOrPath)
	if err != nil {
		return err
	}
	if wkOver != nil {
		spec.Base.Workload = wkOver
	}
	opt := experiments.Options{Runs: runs, Journal: journal}
	if workers > 0 || fleetListen != "" {
		if runs <= 1 {
			return fmt.Errorf("-workers shards replicas; give it work with -runs > 1")
		}
		f, err := newLocalFleet(workers, fleetListen, fleetToken, ob.progress)
		if err != nil {
			return err
		}
		defer f.Close()
		opt.Fleet = f
	}
	var primary *scenario.Result
	if runs <= 1 {
		r, err := spec.Start()
		if err != nil {
			return err
		}
		var rec *workload.Recorder
		if recPath != "" {
			rec = workload.NewRecorder(workload.Header{Scenario: spec.Name, Seed: spec.Base.Seed})
			r.World().SetWorkloadRecorder(rec)
		}
		finishObs, err := ob.attach(r.World(), "scenario "+spec.Name)
		if err != nil {
			return err
		}
		res, err := r.Finish()
		if err != nil {
			return err
		}
		if err := finishObs(); err != nil {
			return err
		}
		if rec != nil {
			if err := writeTrace(recPath, rec); err != nil {
				return err
			}
		}
		primary = res
		fmt.Fprint(out, res.Summary())
	} else {
		reps, err := experiments.RunScenarioReplicas(spec, opt)
		if err != nil {
			return err
		}
		primary = reps[0].Result
		fmt.Fprintln(out, experiments.ScenarioTable(reps))
	}
	if csvPath != "" {
		csv, err := primary.CSV()
		if err != nil {
			return err
		}
		if err := os.WriteFile(csvPath, []byte(csv), 0o644); err != nil {
			return err
		}
		logf("series written to %s", csvPath)
	}
	return nil
}

// newLocalFleet builds the coordinator for -workers/-fleet-listen: n
// copies of this binary in -worker mode, plus an optional TCP join
// listener for remote workers.
func newLocalFleet(n int, listen, token string, progress bool) (*fleet.Fleet, error) {
	cfg := fleet.Config{Workers: n, Listen: listen, Token: token, Logf: logf}
	if progress {
		cfg.Progress = os.Stderr
	}
	if n > 0 {
		spawn, err := fleet.SelfSpawn()
		if err != nil {
			return nil, err
		}
		cfg.Spawn = spawn
	}
	f, err := fleet.New(cfg)
	if err != nil {
		return nil, err
	}
	if listen != "" {
		logf("fleet accepting remote workers on %s", f.Addr())
	}
	return f, nil
}

// logf is the progress/log channel: stderr, never stdout — stdout belongs
// to results (and to protocol frames in worker mode).
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "replend-sim: "+format+"\n", args...)
}

// scenariosCmd implements `replend-sim scenarios list|describe|dump`.
func scenariosCmd(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: replend-sim scenarios list|describe <name>|dump <name>")
	}
	switch args[0] {
	case "list":
		for _, name := range scenario.Names() {
			s, err := scenario.Get(name)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%-15s %s\n", name, s.Description)
		}
		return nil
	case "describe", "dump":
		if len(args) != 2 {
			return fmt.Errorf("usage: replend-sim scenarios %s <name>", args[0])
		}
		s, err := scenario.Get(args[1])
		if err != nil {
			return err
		}
		if args[0] == "describe" {
			fmt.Fprint(out, s.Describe())
			return nil
		}
		data, err := s.JSON()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, string(data))
		return nil
	}
	return fmt.Errorf("unknown scenarios subcommand %q (want list, describe or dump)", args[0])
}

func policyByName(name string) (baseline.Policy, error) {
	for _, p := range baseline.All() {
		if p.Name() == name || (name == "fixed-credit" && p.Name() == "fixed-credit(0.1)") {
			return p, nil
		}
	}
	return nil, fmt.Errorf("unknown policy %q", name)
}

func printSummary(w *world.World) {
	m := w.Metrics()
	ps := w.Protocol().Stats()
	cfg := w.Config()
	fmt.Printf("reputation lending simulation — seed %d, %d ticks, λ=%g, topology %s\n",
		cfg.Seed, cfg.NumTrans, cfg.Lambda, cfg.Topology)
	fmt.Printf("population:   %d peers (%d cooperative, %d uncooperative, %d founders)\n",
		w.PopulationSize(), m.CoopInSystem, m.UncoopInSystem, m.Founders)
	fmt.Printf("arrivals:     %d cooperative, %d uncooperative\n", m.ArrivalsCoop, m.ArrivalsUncoop)
	fmt.Printf("admitted:     %d cooperative, %d uncooperative\n", m.AdmittedCoop, m.AdmittedUncoop)
	fmt.Printf("refused:      %d by introducer, %d for introducer reputation, %d no introducer, %d pending at end\n",
		m.RefusedSelectiveCoop+m.RefusedSelectiveUncoop,
		m.RefusedRepCoop+m.RefusedRepUncoop, m.RefusedNoIntroducer, m.Pending)
	fmt.Printf("transactions: %d served, %d denied\n", m.Served, m.Denied)
	fmt.Printf("success rate: %.4f (decisions by cooperative respondents)\n", m.SuccessRate())
	fmt.Printf("audits:       %d satisfied (stake+reward returned), %d forfeited\n",
		m.AuditsSatisfied, m.AuditsForfeited)
	fmt.Printf("protocol:     %d lends granted, %d duplicate-introduction punishments\n",
		ps.Granted, ps.DuplicateAttempts)
	if c := m.Churn; c.Departures+c.Crashes+c.Rejoins+c.Migrated+c.Wipeouts > 0 {
		fmt.Printf("churn:        %d departures, %d crashes, %d rejoins; %d records migrated, %d wiped out\n",
			c.Departures, c.Crashes, c.Rejoins, c.Migrated, c.Wipeouts)
	}
	if cfg.Churn.LeaseTTL > 0 {
		fmt.Printf("leases:       %d records evicted (TTL %d)\n", m.Churn.LeaseEvictions, cfg.Churn.LeaseTTL)
	}
	for _, c := range m.Cohorts {
		fmt.Printf("cohort %-14s %d arrivals, %d admitted, %d in system; %d departures, %d crashes, %d rejoins\n",
			fmt.Sprintf("%q:", c.Name), c.Arrivals, c.Admitted, c.InSystem, c.Departures, c.Crashes, c.Rejoins)
	}
	if cfg.StakeTimeout > 0 {
		c := m.Churn
		fmt.Printf("stakes:       %d refunded, %d stranded, %d expired records (timeout %d); mass %.2f staked = %.2f settled + %.2f refunded + %.2f stranded + %.2f pending\n",
			c.StakesRefunded, c.StakesStranded, c.StakesExpired, cfg.StakeTimeout,
			ps.StakedMass, ps.SettledMass, ps.RefundedMass, ps.StrandedMass, ps.PendingMass)
	}
	if last, ok := m.CoopReputation.Last(); ok {
		fmt.Printf("reputation:   mean cooperative reputation %.4f at end\n", last.V)
	}
}
