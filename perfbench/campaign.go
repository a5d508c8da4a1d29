package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"explframe/internal/cipher/registry"
	"explframe/internal/core"
	"explframe/internal/harness"
	"explframe/internal/report"
	"explframe/internal/scenario"
)

// campaignWorkload describes a workload that runs its rounds directly
// through scenario.Campaign.Run.
type campaignWorkload struct {
	round roundFunc
	// warm is the campaign one setup repeat runs before timing starts, so
	// lazy initialisation and heap growth are not charged to the first
	// timed trial.
	warm func(seed uint64) scenario.Campaign
	// pinned is the digest of round 0's outcomes at defaultSeed.
	pinned string
	// minCoverage is the share of each traced trial span its child spans
	// must cover (0 checks nothing).
	minCoverage float64
}

var attackWorkload = campaignWorkload{
	round: attackRound,
	warm: func(seed uint64) scenario.Campaign {
		return seeded("attack-campaign warm-up", seed, -1, []scenario.Spec{
			scenario.New(scenario.WithProfile("fast"), scenario.WithTrials(1)),
		})
	},
	pinned:      "d956439bda29a35b",
	minCoverage: 0.95,
}

var cryptoWorkload = campaignWorkload{
	round: cryptoRound,
	warm: func(seed uint64) scenario.Campaign {
		return seeded("crypto-analysis warm-up", seed, -1, []scenario.Spec{
			scenario.New(scenario.WithKind(scenario.PFA), scenario.WithTrials(1)),
			scenario.New(scenario.WithProbe("prime-probe"), scenario.WithBudget(4096), scenario.WithTrials(1)),
		})
	},
	pinned: "2340892d6337da83",
}

// runCampaignWorkload sets the workload up setupRepeats times, runs whole
// rounds until o.seconds have passed, resumes the first resumeRounds rounds
// from a checkpoint of their first half, and checks the outcomes.  A traced
// run also replays every round through the traced drivers and compares
// their outcomes.
func runCampaignWorkload(o options, w campaignWorkload) *result {
	res := &result{}
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		if _, err := delivered(w.round(o.seed, 0)); err != nil {
			res.fail(1, "setup: %v", err)
			return res
		}
		warm, err := delivered(w.warm(o.seed + uint64(i)))
		if err == nil {
			_, err = warm.Run(context.Background(), scenario.WithTrialOptions(harness.WithWorkers(1)))
		}
		if err != nil {
			res.fail(1, "setup: %v", err)
			return res
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	var rounds []*roundRun
	var latencies, firsts, rates []float64
	var trials int
	var timed time.Duration
	var untracedMS, tracedMS float64
	start := time.Now()
	for r := 0; r == 0 || time.Since(start).Seconds() < o.seconds; r++ {
		camp, err := delivered(w.round(o.seed, r))
		if err != nil {
			res.fail(1, "round %d: %v", r, err)
			break
		}
		rr := runRound(camp)
		rounds = append(rounds, rr)
		res.attempted += rr.trials()
		res.failed += rr.trials() - rr.completed()
		if rr.err != nil {
			res.problems = append(res.problems, fmt.Sprintf("round %d: %v", r, rr.err))
		}
		trials += rr.completed()
		timed += rr.elapsed
		rates = append(rates, float64(rr.completed())/rr.elapsed.Seconds())
		latencies = append(latencies, rr.latencyMS...)
		if rr.firstMS >= 0 {
			firsts = append(firsts, rr.firstMS)
		}
		for i, spec := range camp.Specs {
			for k, out := range rr.outcomes[i] {
				if out == nil {
					continue
				}
				if err := checkOutcome(spec, *out); err != nil {
					res.fail(1, "round %d %s trial %d: %v", r, spec.Title(), k, err)
				}
			}
		}
		if tr != nil {
			for _, ms := range rr.latencyMS {
				untracedMS += ms
			}
			tracedMS += replayTraced(tr, rr, res)
		}
	}

	if len(rounds) == 0 {
		return res
	}
	round0 := rounds[0]
	if o.seed == defaultSeed {
		if got := digest(round0.outcomes); got != w.pinned {
			res.fail(round0.trials(), "round 0 outcome digest %s, pinned %s", got, w.pinned)
		}
	} else {
		res.note("held-out seed: the pinned round-0 digest is not checked")
	}
	if tr == nil {
		// The traced run compares every trial; an untraced run re-derives
		// the first one so a held-out seed is checked too.
		res.attempted++
		if out, err := tracedTrial(newTracer(), round0.camp.Specs[0], 0); err != nil || !sameOutcome(&out, round0.outcomes[0][0]) {
			res.fail(1, "round 0 trial 0: traced driver disagrees with Campaign.Run (%v)", err)
		}
	}
	var resumes []float64
	for _, rr := range rounds[:min(len(rounds), resumeRounds)] {
		resumes = append(resumes, resumeRound(rr, res))
	}

	tail, tailMS, beyond := tail(latencies)
	res.note("round throughputs (1/s): %.4g", rates)
	res.note("trials: %d in %d rounds over %.3f s; trial_ms_tail is p%g with %d of %d samples beyond it",
		trials, len(rounds), timed.Seconds(), tail, beyond, len(latencies))
	res.endToEnd = endToEnd(median(rates), latencies, tailMS, median(firsts), median(setups), median(resumes))
	if tr != nil {
		res.layers = layerMetrics(tr, ratio(untracedMS, tracedMS), serviceStats{})
		if w.minCoverage > 0 {
			for i, c := range tr.coverage {
				if c < w.minCoverage {
					res.fail(1, "traced trial %d: child spans cover %.4f of the trial, want >= %.2f", i, c, w.minCoverage)
				}
			}
		}
	}
	return res
}

// replayTraced reruns every completed trial of the round through the traced
// drivers, fails the trials whose outcome differs from Campaign.Run's, and
// returns the traced trial time in milliseconds.
func replayTraced(tr *tracer, rr *roundRun, res *result) float64 {
	total := 0.0
	for i, spec := range rr.camp.Specs {
		for k, want := range rr.outcomes[i] {
			if want == nil {
				continue
			}
			res.attempted++
			before := len(tr.coverage)
			start := time.Now()
			got, err := tracedTrial(tr, spec, k)
			total += msBetween(start, time.Now())
			if err != nil || !sameOutcome(&got, want) {
				res.fail(1, "%s trial %d: traced driver disagrees with Campaign.Run (%v)", spec.Title(), k, err)
			}
			if len(tr.coverage) != before+1 {
				res.fail(1, "%s trial %d: traced driver recorded no trial span", spec.Title(), k)
			}
		}
	}
	return total
}

// resumeRound runs a round again from a checkpoint of its first half of
// trials, in spec and trial order, checks that the resume computes exactly
// the other half and reproduces the uninterrupted round byte for byte, and
// returns the resume's wall time in seconds.
func resumeRound(rr *roundRun, res *result) float64 {
	cp := scenario.Checkpoint{}
	half := rr.trials() / 2
	n := 0
	for i, spec := range rr.camp.Specs {
		for k, out := range rr.outcomes[i] {
			if n < half && out != nil {
				cp.Add(spec.Hash(), k, *out)
			}
			n++
		}
	}
	recomputed := 0
	mismatched := 0
	res.attempted++
	start := time.Now()
	results, err := rr.camp.Run(context.Background(),
		scenario.WithCheckpoint(cp),
		scenario.WithTrialEvents(),
		scenario.WithTrialOptions(harness.WithWorkers(1)),
		scenario.WithProgress(func(e scenario.Event) {
			if e.Trial < 0 {
				return
			}
			recomputed++
			if !sameOutcome(e.Outcome, rr.outcomes[e.Index][e.Trial]) {
				mismatched++
			}
		}))
	elapsed := time.Since(start).Seconds()
	switch {
	case err != nil:
		res.fail(1, "resume: %v", err)
	case recomputed != rr.trials()-cp.Trials() || mismatched > 0:
		res.fail(1, "resume recomputed %d trials (%d differ), want %d", recomputed, mismatched, rr.trials()-cp.Trials())
	case !bytes.Equal(tableJSON(rr.camp.Name, results), tableJSON(rr.camp.Name, rr.results)):
		res.fail(1, "resumed campaign table differs from the uninterrupted one")
	}
	return elapsed
}

// tableJSON renders a campaign's results as the service persists them.
func tableJSON(name string, results []*scenario.Result) []byte {
	data, err := report.JSON(scenario.CampaignTable(name, results))
	if err != nil {
		return []byte(err.Error())
	}
	return append(data, '\n')
}

// sameOutcome compares two outcomes by their JSON, the form the journal
// stores.
func sameOutcome(a, b *scenario.TrialOutcome) bool {
	if a == nil || b == nil {
		return a == b
	}
	x, errX := json.Marshal(a)
	y, errY := json.Marshal(b)
	return errX == nil && errY == nil && bytes.Equal(x, y)
}

// checkOutcome checks the invariants every outcome of its kind must hold,
// whatever the seed.  An attack that recovers no key is an outcome, not a
// failure; claiming a key other than the victim's is a failure.
func checkOutcome(spec scenario.Spec, out scenario.TrialOutcome) error {
	switch {
	case !out.Matches(spec.Kind):
		return fmt.Errorf("outcome does not carry a %s result", spec.Kind)
	case out.Attack != nil:
		rep := out.Attack
		key := core.DefaultVictimKey(registry.MustGet(spec.CipherName()))
		if rep.KeyRecovered && !bytes.Equal(rep.RecoveredKey, key) {
			return fmt.Errorf("reports recovering %x, victim key is %x", rep.RecoveredKey, key)
		}
		if rep.Success() && !(rep.SiteFound && rep.FaultInjected) {
			return fmt.Errorf("succeeded without a templated site and an injected fault")
		}
	case out.PFA != nil:
		if out.PFA.MasterOK && out.PFA.RecoveredAt <= 0 {
			return fmt.Errorf("master key without a last-round recovery")
		}
	case out.DFA != nil:
		if out.DFA.RecoveredAt > spec.Budget && spec.Budget > 0 {
			return fmt.Errorf("recovered at pair %d of a %d-pair budget", out.DFA.RecoveredAt, spec.Budget)
		}
	case out.CacheProbe != nil:
		c := out.CacheProbe
		if c.Nibbles < 0 || c.Nibbles > c.NibbleTotal || c.Measurements != spec.Budget {
			return fmt.Errorf("%d of %d nibbles after %d measurements", c.Nibbles, c.NibbleTotal, c.Measurements)
		}
	}
	return nil
}

// endToEnd assembles the end-to-end metrics in their declared order.  The
// throughput is the median of the rounds' throughputs and every time a
// median, so a host that slows down for part of a run moves them less.
func endToEnd(tps float64, latencies []float64, tailMS, firstMS, setupS, resumeS float64) []metric {
	return []metric{
		{"trials_per_s", "1/s", tps},
		{"trial_ms_p50", "ms", median(latencies)},
		{"trial_ms_tail", "ms", tailMS},
		{"first_result_ms", "ms", firstMS},
		{"setup_s", "s", setupS},
		{"peak_rss_mib", "MiB", peakRSSMiB()},
		{"resume_s", "s", resumeS},
	}
}

// serviceStats carries the service workload's per-round measurements into
// the per-layer table.
type serviceStats struct {
	rounds                     float64
	replayMS, submitMS         float64
	appendUS                   []float64
	journalBytes, journalLines float64
	resumed, recomputed        float64
	serviceTPS                 float64
	directRates                []float64
}

// layerMetrics computes every per-layer metric from a traced run.  Times
// and counts are per traced trial of the workload, so a workload's layer
// times add up to its mean traced trial; service metrics are per round.  A
// layer the workload never reaches reports 0.  tracedTPS is the traced
// drivers' throughput as a share of the untraced run's over the same
// trials: one minus the tracing overhead.
func layerMetrics(t *tracer, tracedTPS float64, s serviceStats) []metric {
	trials := float64(len(t.coverage))
	c := t.counts
	per := func(v float64) float64 { return ratio(v, trials) }
	perRound := func(v float64) float64 { return ratio(v, s.rounds) }
	minCoverage := 0.0
	for i, v := range t.coverage {
		if i == 0 || v < minCoverage {
			minCoverage = v
		}
	}
	p50, p99 := 0.0, 0.0
	if len(s.appendUS) > 0 {
		sorted := sortedCopy(s.appendUS)
		p50, p99 = percentile(sorted, 50), percentile(sorted, 99)
	}
	trialMS := t.ms("core.attack_trial") + t.ms("core.steering_trial") + t.ms("scenario.pfa_trial") +
		t.ms("scenario.dfa_trial") + t.ms("scenario.cache_probe_trial")
	return []metric{
		{"dram.activations", "count", per(c["dram.activations"])},
		{"dram.ns_per_activation", "ns", ratio((t.ms("rowhammer.template")+t.ms("rowhammer.rehammer"))*1e6, c["dram.activations"])},
		{"dram.row_hits", "count", per(c["dram.row_hits"])},
		{"dram.bit_flips", "count", per(c["dram.bit_flips"])},
		{"dram.trr_refreshes", "count", per(c["dram.trr_refreshes"])},
		{"dram.ecc_corrected", "count", per(c["dram.ecc_corrected"])},
		{"rowhammer.template_ms", "ms", per(t.ms("rowhammer.template"))},
		{"rowhammer.template_activations", "count", per(c["rowhammer.template_activations"])},
		{"rowhammer.flips_templated", "count", per(c["rowhammer.flips_templated"])},
		{"rowhammer.usable_site_ratio", "ratio", ratio(c["rowhammer.usable_sites"], c["rowhammer.flips_templated"])},
		{"rowhammer.rehammer_ms", "ms", per(t.ms("rowhammer.rehammer"))},
		{"kernel.new_machine_ms", "ms", per(t.ms("kernel.new_machine"))},
		{"kernel.touch_ms", "ms", per(t.ms("kernel.touch"))},
		{"kernel.plant_ms", "ms", per(t.ms("kernel.plant"))},
		{"kernel.steer_ms", "ms", per(t.ms("kernel.steer"))},
		{"mm.pcp_hits", "count", per(c["mm.pcp_hits"])},
		{"mm.pcp_misses", "count", per(c["mm.pcp_misses"])},
		{"core.steering_hit_ratio", "ratio", ratio(c["core.steering_hits"], c["core.steered"])},
		{"core.fault_injected_ratio", "ratio", ratio(c["core.faults_injected"], c["core.rehammered"])},
		{"core.self_ms", "ms", per(t.selfMS("core.attack_trial"))},
		{"core.steering_trial_ms", "ms", per(t.ms("core.steering_trial"))},
		{"cipher.victim_encrypt_ms", "ms", per(t.ms("cipher.victim_encrypt"))},
		{"cipher.key_setup_ms", "ms", per(t.ms("cipher.key_setup"))},
		{"cipher.batch_encrypt_ms", "ms", per(t.ms("cipher.batch_encrypt"))},
		{"cipher.encryptions", "count", per(c["cipher.encryptions"])},
		{"cipher.ns_per_encryption", "ns", ratio(t.ms("cipher.batch_encrypt")*1e6, c["cipher.encryptions"])},
		{"pfa.observe_ms", "ms", per(t.ms("pfa.observe"))},
		{"pfa.recover_ms", "ms", per(t.ms("pfa.recover"))},
		{"pfa.ciphertexts_used", "count", ratio(c["pfa.ciphertexts_used"], c["pfa.analyses"])},
		{"pfa.recover_last_round_ms", "ms", per(t.ms("pfa.recover_last_round"))},
		{"pfa.recover_last_round_calls", "count", per(c["pfa.recover_last_round_calls"])},
		{"pfa.recover_master_ms", "ms", per(t.ms("pfa.recover_master"))},
		{"dfa.collect_ms", "ms", per(t.ms("dfa.collect"))},
		{"dfa.pairs_collected", "count", per(c["dfa.pairs_collected"])},
		{"dfa.analyze_ms", "ms", per(t.ms("dfa.analyze"))},
		{"dfa.analyze_calls", "count", per(c["dfa.analyze_calls"])},
		{"dfa.pairs_to_recovery", "count", ratio(c["dfa.recovery_pairs"], c["dfa.recoveries"])},
		{"cache.setup_ms", "ms", per(t.ms("cache.setup"))},
		{"cache.probe_ms", "ms", per(t.ms("cache.probe"))},
		{"cache.measurements", "count", per(c["cache.measurements"])},
		{"cache.ns_per_measurement", "ns", ratio(t.ms("cache.probe")*1e6, c["cache.measurements"])},
		{"cache.nibbles_ratio", "ratio", ratio(c["cache.nibbles"], c["cache.nibble_total"])},
		{"cache.time_share", "ratio", ratio(t.ms("scenario.cache_probe_trial"), trialMS)},
		{"service.replay_ms", "ms", perRound(s.replayMS)},
		{"service.submit_ms", "ms", perRound(s.submitMS)},
		{"service.journal_append_us_p50", "us", p50},
		{"service.journal_append_us_p99", "us", p99},
		{"service.journal_bytes", "bytes", perRound(s.journalBytes)},
		{"service.journal_lines", "count", perRound(s.journalLines)},
		{"service.resumed_trials", "count", perRound(s.resumed)},
		{"service.recomputed_trials", "count", perRound(s.recomputed)},
		{"service.overhead_ratio", "ratio", ratio(s.serviceTPS, median(s.directRates))},
		{"bench.traced_tps_ratio", "ratio", tracedTPS},
		{"bench.span_coverage_min", "ratio", minCoverage},
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
