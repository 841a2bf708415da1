package main

import (
	"fmt"
	"time"

	"repro/internal/id"
	"repro/internal/rng"
	"repro/internal/transport"
	"repro/internal/world"
)

// probePeers is how many admitted peers the per-call probes cycle over.
const probePeers = 2_000

// probeCalls is the minimum number of calls a cheap probe times.
const probeCalls = 20_000

// samplePeers picks up to probePeers admitted peers spread evenly over
// admission order.
func samplePeers(w *world.World) []id.ID {
	all := w.AdmittedPeers()
	if len(all) <= probePeers {
		return all
	}
	out := make([]id.ID, 0, probePeers)
	for i := 0; i < probePeers; i++ {
		out = append(out, all[i*len(all)/probePeers])
	}
	return out
}

// timePerCall calls fn over the peers, repeating the sweep until at least
// minCalls calls ran, and returns the mean host nanoseconds per call.
func timePerCall(log *spanLog, name string, peers []id.ID, minCalls int, fn func(id.ID)) float64 {
	defer log.begin(name)()
	calls := 0
	t0 := time.Now()
	for calls < minCalls {
		for _, p := range peers {
			fn(p)
		}
		calls += len(peers)
	}
	return float64(time.Since(t0)) / float64(calls)
}

var probeSink float64

// probe times single calls into each layer on a finished world. It runs
// after the timed iteration and its output check.
func probe(log *spanLog, w *world.World, seed uint64) (map[string]float64, error) {
	defer log.begin("probes")()
	peers := samplePeers(w)
	if len(peers) == 0 {
		return nil, fmt.Errorf("probe: world has no admitted peers")
	}
	out := map[string]float64{}
	us := func(ns float64) float64 { return ns / 1e3 }

	for _, p := range peers { // fill the placement cache before timing it
		w.ScoreManagers(p)
	}
	out["world.query_reputation_us"] = us(timePerCall(log, "probe.query_reputation", peers, probeCalls, func(p id.ID) {
		v, _ := w.QueryReputation(p)
		probeSink += v
	}))
	out["world.placement_cached_us"] = us(timePerCall(log, "probe.placement_cached", peers, probeCalls, func(p id.ID) {
		probeSink += float64(len(w.ScoreManagers(p)))
	}))
	numSM := w.Config().NumSM
	var ringErr error
	out["overlay.placement_us"] = us(timePerCall(log, "probe.placement_uncached", peers, len(peers), func(p id.ID) {
		sms, err := w.Ring().ScoreManagers(p, numSM)
		if err != nil && ringErr == nil {
			ringErr = err
		}
		probeSink += float64(len(sms))
	}))
	if ringErr != nil {
		return nil, fmt.Errorf("probe: overlay placement: %w", ringErr)
	}
	store := w.Store(w.ScoreManagers(peers[0])[0])
	out["rocq.credibility_ns"] = timePerCall(log, "probe.credibility", peers, probeCalls, func(p id.ID) {
		probeSink += store.Credibility(p)
	})

	signer, err := transport.NewSigner(rng.New(seed))
	if err != nil {
		return nil, fmt.Errorf("probe: signer: %w", err)
	}
	envs := make([]transport.Envelope, 0, len(peers))
	out["transport.sign_us"] = us(timePerCall(log, "probe.sign", peers, len(peers), func(p id.ID) {
		envs = append(envs, signer.Sign(transport.LendOrder{Introducer: peers[0], NewPeer: p, Amount: 0.1, Nonce: uint64(len(envs))}))
	}))
	var verifyErr error
	i := 0
	out["transport.verify_us"] = us(timePerCall(log, "probe.verify", peers, len(peers), func(id.ID) {
		if err := envs[i].Verify(signer.Public()); err != nil && verifyErr == nil {
			verifyErr = err
		}
		i++
	}))
	if verifyErr != nil {
		return nil, fmt.Errorf("probe: verify: %w", verifyErr)
	}
	return out, nil
}
