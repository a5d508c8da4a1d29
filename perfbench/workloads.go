package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"explframe/internal/cache"
	"explframe/internal/fault"
	"explframe/internal/harness"
	"explframe/internal/scenario"
	"explframe/internal/stats"
)

// A round is one campaign of a workload: a fixed list of specs whose seeds
// come from the workload seed and the round index.  A run executes whole
// rounds until its time is up, so every run sees the same mix of trials.
type roundFunc func(seed uint64, round int) scenario.Campaign

// seeded names the campaign and gives spec i the seed of slot i of the
// round.
func seeded(workload string, seed uint64, round int, specs []scenario.Spec) scenario.Campaign {
	roundSeed := stats.DeriveSeed(seed, uint64(round))
	for i := range specs {
		specs[i].Seed = stats.DeriveSeed(roundSeed, uint64(i))
	}
	return scenario.Campaign{Name: fmt.Sprintf("%s seed %d round %d", workload, seed, round), Specs: specs}
}

// attackRound is the paper's pipeline on every registered machine.  The
// 4-bit ciphers and the two defence specs run on "fast": on "default" the
// 4-bit ciphers need a geometric number of template passes (1–6 s a
// trial), which would let a handful of trials set the run's throughput.
// The cheap "fast" trials come last: they are the half of a round a resume
// recomputes.
func attackRound(seed uint64, round int) scenario.Campaign {
	s := scenario.New
	w := scenario.WithProfile
	n := scenario.WithTrials
	return seeded("attack-campaign", seed, round, []scenario.Spec{
		s(scenario.WithLabel("default aes"), w("default"), n(1)),
		s(scenario.WithLabel("ddr4 aes"), w("ddr4"), n(1)),
		s(scenario.WithLabel("server-1g aes"), w("server-1g"), n(1)),
		s(scenario.WithLabel("trr-hardened aes"), w("trr-hardened"), n(1)),
		s(scenario.WithLabel("fast many-sided vs trr"), w("fast"), scenario.WithTRR(4, 300), scenario.WithManySided(8), n(1)),
		s(scenario.WithLabel("fast aes"), w("fast"), n(3)),
		s(scenario.WithLabel("fast ecc"), w("fast"), scenario.WithECC(), n(2)),
		s(scenario.WithLabel("fast present"), w("fast"), scenario.WithCipher("present-80"), n(2)),
		s(scenario.WithLabel("fast lilliput"), w("fast"), scenario.WithCipher("lilliput-80"), n(2)),
	})
}

// cryptoRound is the analysis half of the paper without DRAM: persistent
// fault analysis of all three ciphers, differential fault analysis of AES
// and LILLIPUT, and the three cache-timing techniques, whose budgets give
// the cache layer about half of the time.  A LILLIPUT DFA trial costs up
// to seconds (its end game completes 2^16 master keys per candidate), so
// it runs in round 0 only; more of them would let a few trials set the
// run's throughput.  A round opens with a page-cache trial, whose cost is
// fixed, so first_result_ms does not ride on how many ciphertexts a PFA
// trial happens to need; the other fixed-cost cache trials come last, as
// most of the half of a round a resume recomputes.
func cryptoRound(seed uint64, round int) scenario.Campaign {
	s := scenario.New
	n := scenario.WithTrials
	pageCache := func(label string, trials int) scenario.Spec {
		return s(scenario.WithLabel(label), scenario.WithProbe(cache.TechPageCache), scenario.WithProbeNoise(0.05),
			scenario.WithBudget(262144), n(trials))
	}
	specs := []scenario.Spec{
		pageCache("page-cache first", 1),
		s(scenario.WithLabel("pfa aes"), scenario.WithKind(scenario.PFA), n(4)),
	}
	if round == 0 {
		specs = append(specs, s(scenario.WithLabel("dfa lilliput"), scenario.WithKind(scenario.DFA),
			scenario.WithCipher("lilliput-80"), scenario.WithFaultModel(fault.New(fault.Nibble)), scenario.WithBudget(40), n(1)))
	}
	specs = append(specs,
		s(scenario.WithLabel("dfa aes"), scenario.WithKind(scenario.DFA), scenario.WithFaultModel(fault.New(fault.PreciseByte)), n(1)),
		s(scenario.WithLabel("pfa present"), scenario.WithKind(scenario.PFA), scenario.WithCipher("present-80"), n(1)),
		s(scenario.WithLabel("pfa lilliput"), scenario.WithKind(scenario.PFA), scenario.WithCipher("lilliput-80"), n(1)),
		pageCache("page-cache", 2),
		s(scenario.WithLabel("prime-probe"), scenario.WithProbe(cache.TechPrimeProbe), scenario.WithProbeNoise(0.05), scenario.WithBudget(8192), n(3)),
		s(scenario.WithLabel("evict-reload"), scenario.WithProbe(cache.TechEvictReload), scenario.WithProbeNoise(0.05), scenario.WithBudget(8192), n(3)),
	)
	return seeded("crypto-analysis", seed, round, specs)
}

// serviceRound is a campaign of cheap trials for the service: page frame
// cache steering under LIFO, FIFO and allocation noise, and AES PFA.
func serviceRound(seed uint64, round int) scenario.Campaign {
	s := scenario.New
	n := scenario.WithTrials(50)
	st := scenario.WithKind(scenario.Steering)
	return seeded("service-resume", seed, round, []scenario.Spec{
		s(scenario.WithLabel("steering lifo"), st, n),
		s(scenario.WithLabel("steering fifo"), st, scenario.WithPCPFIFO(), n),
		s(scenario.WithLabel("steering noise"), st, scenario.WithNoise(2, 64), n),
		s(scenario.WithLabel("pfa aes"), scenario.WithKind(scenario.PFA), n),
	})
}

// delivered hands a generated campaign to the program the way its users
// do, as strict JSON through scenario.ParseCampaign: the program receives
// only the generated specs.
func delivered(c scenario.Campaign) (scenario.Campaign, error) {
	data, err := c.EncodeJSON()
	if err != nil {
		return scenario.Campaign{}, err
	}
	return scenario.ParseCampaign(data)
}

// roundRun is one round executed through scenario.Campaign.Run.
type roundRun struct {
	camp scenario.Campaign
	// outcomes holds every trial outcome in spec and trial order; a trial
	// that failed leaves a nil entry.
	outcomes [][]*scenario.TrialOutcome
	// latencyMS holds each completed trial's host latency.
	latencyMS []float64
	// firstMS is the time from the Run call to the first completed trial.
	firstMS float64
	elapsed time.Duration
	results []*scenario.Result
	err     error
}

// trials counts the round's trials.
func (r *roundRun) trials() int {
	n := 0
	for _, s := range r.camp.Specs {
		n += s.Trials
	}
	return n
}

// completed counts the trials that returned an outcome.
func (r *roundRun) completed() int {
	n := 0
	for _, outs := range r.outcomes {
		for _, o := range outs {
			if o != nil {
				n++
			}
		}
	}
	return n
}

// runRound executes camp at one trial worker, timing every trial from the
// previous event of its spec.
func runRound(camp scenario.Campaign) *roundRun {
	r := &roundRun{camp: camp, firstMS: -1}
	r.outcomes = make([][]*scenario.TrialOutcome, len(camp.Specs))
	for i, s := range camp.Specs {
		r.outcomes[i] = make([]*scenario.TrialOutcome, s.Trials)
	}
	start := time.Now()
	last := start
	r.results, r.err = camp.Run(context.Background(),
		scenario.WithTrialEvents(),
		scenario.WithTrialOptions(harness.WithWorkers(1)),
		scenario.WithProgress(func(e scenario.Event) {
			now := time.Now()
			if e.Trial < 0 {
				last = now
				return
			}
			r.outcomes[e.Index][e.Trial] = e.Outcome
			r.latencyMS = append(r.latencyMS, msBetween(last, now))
			if r.firstMS < 0 {
				r.firstMS = msBetween(start, now)
			}
			last = now
		}))
	r.elapsed = time.Since(start)
	return r
}

// digest hashes every trial outcome of a round in spec and trial order.
func digest(outcomes [][]*scenario.TrialOutcome) string {
	h := sha256.New()
	for _, outs := range outcomes {
		for _, o := range outs {
			data, err := json.Marshal(o)
			if err != nil {
				panic(err) // a TrialOutcome always marshals
			}
			h.Write(data)
			h.Write([]byte{'\n'})
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func msBetween(a, b time.Time) float64 { return float64(b.Sub(a)) / 1e6 }
