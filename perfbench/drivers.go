package main

import (
	"bytes"
	"fmt"

	"explframe/internal/cache"
	"explframe/internal/cipher/registry"
	"explframe/internal/core"
	"explframe/internal/dram"
	"explframe/internal/fault"
	"explframe/internal/fault/dfa"
	"explframe/internal/fault/pfa"
	"explframe/internal/kernel"
	"explframe/internal/mm"
	"explframe/internal/scenario"
	"explframe/internal/stats"
	"explframe/internal/trace"
	"explframe/internal/vm"
)

// tracedTrial runs trial k of spec through the traced drivers.  Trial k
// draws from the same stream the harness hands it, stats.NewStream(seed,
// k), and each kind's driver makes the calls of that kind's trial body in
// scenario, so the outcome equals the one scenario.RunResumable produces.
func tracedTrial(t *tracer, spec scenario.Spec, k int) (scenario.TrialOutcome, error) {
	rng := stats.NewStream(spec.Seed, uint64(k))
	switch spec.Kind {
	case scenario.Attack:
		cfg, err := spec.AttackConfig()
		if err != nil {
			return scenario.TrialOutcome{}, err
		}
		cfg.Seed = rng.Uint64()
		rep, err := tracedAttack(t, cfg)
		return scenario.TrialOutcome{Attack: rep}, err
	case scenario.Steering:
		cfg := spec.SteeringConfig()
		cfg.Seed = rng.Uint64()
		res, err := tracedSteering(t, cfg)
		return scenario.TrialOutcome{Steering: res}, err
	case scenario.PFA:
		c := registry.MustGet(spec.CipherName())
		budget := spec.Budget
		if budget == 0 {
			budget = 25 << uint(c.EntryBits())
		}
		tr, err := tracedPFA(t, c, budget, rng)
		return scenario.TrialOutcome{PFA: &tr}, err
	case scenario.DFA:
		c := registry.MustGet(spec.CipherName())
		budget := spec.Budget
		if budget == 0 {
			budget = 16
		}
		tr, err := tracedDFA(t, c, dfa.MustGet(c.Name()), spec.FaultModel(), budget, rng)
		return scenario.TrialOutcome{DFA: &tr}, err
	case scenario.CacheProbe:
		ms, err := spec.MachineSpec()
		if err != nil {
			return scenario.TrialOutcome{}, err
		}
		cfg := cache.ProbeConfig{
			Technique: spec.Probe.Technique, Budget: spec.Budget,
			Noise: spec.Probe.Noise, EvictionSet: spec.Probe.EvictionSet,
		}
		if cfg.Budget == 0 {
			cfg.Budget = scenario.DefaultProbeBudget
		}
		cpus := ms.CPUs
		if cpus <= 0 {
			cpus = 2
		}
		tr, err := tracedCacheProbe(t, registry.MustGet(spec.CipherName()), ms.MapperName(), ms.Geometry, cache.DefaultGeometry(cpus), cfg, rng)
		return scenario.TrialOutcome{CacheProbe: &tr}, err
	}
	return scenario.TrialOutcome{}, fmt.Errorf("no traced driver for kind %q", spec.Kind)
}

// tracedPFA mirrors the crypto-only persistent fault trial: random key, one
// random single-bit S-box fault, faulty ciphertexts in batch-lane chunks,
// recovery checked after every observation.
func tracedPFA(t *tracer, c registry.Cipher, budget int, rng *stats.RNG) (scenario.PFATrial, error) {
	t.begin("scenario.pfa_trial")
	defer t.end()
	out := scenario.PFATrial{RecoveredAt: -1}
	key := make([]byte, c.KeyBytes())
	rng.Bytes(key)
	var inst registry.Instance
	if err := t.span("cipher.key_setup", func() (err error) {
		inst, err = c.New(key)
		return err
	}); err != nil {
		return out, err
	}
	cleanPT := make([]byte, c.BlockSize())
	rng.Bytes(cleanPT)
	cleanCT := make([]byte, c.BlockSize())
	t.begin("cipher.batch_encrypt")
	inst.Encrypt(c.SBox(), cleanCT, cleanPT)
	t.end()
	t.add("cipher.encryptions", 1)

	faulty := c.SBox()
	v := rng.Intn(c.TableLen())
	yStar := faulty[v]
	faulty[v] ^= byte(1 << uint(rng.Intn(c.EntryBits())))

	col := pfa.NewCollector(c)
	bs := c.BlockSize()
	buf := make([]byte, 2*registry.BatchLanes*bs)
	pts := make([][]byte, registry.BatchLanes)
	cts := make([][]byte, registry.BatchLanes)
	for i := range pts {
		pts[i] = buf[i*bs : (i+1)*bs]
		cts[i] = buf[(registry.BatchLanes+i)*bs : (registry.BatchLanes+i+1)*bs]
	}
	for n := 0; n < budget; {
		k := registry.BatchLanes
		if rem := budget - n; rem < k {
			k = rem
		}
		for i := 0; i < k; i++ {
			rng.Bytes(pts[i])
		}
		t.begin("cipher.batch_encrypt")
		inst.EncryptBatch(faulty, cts[:k], pts[:k])
		t.end()
		t.add("cipher.encryptions", float64(k))
		for i := 0; i < k; i++ {
			t.begin("pfa.observe")
			err := col.Observe(cts[i])
			t.end()
			if err != nil {
				return out, err
			}
			t.begin("pfa.recover_last_round")
			_, err = col.RecoverLastRoundKeyKnownFault(yStar)
			t.end()
			t.add("pfa.recover_last_round_calls", 1)
			if err == nil {
				out.RecoveredAt = n + i + 1
				t.begin("pfa.recover_master")
				master, err := col.RecoverMasterKnownFault(yStar, cleanPT, cleanCT)
				t.end()
				out.MasterOK = err == nil && bytes.Equal(master, key)
				return out, nil
			}
		}
		n += k
	}
	return out, nil
}

// tracedDFA mirrors the crypto-only differential fault trial: a full
// budget of correct/faulty pairs, then analysis over growing prefixes until
// the key is unique or the budget runs out.
func tracedDFA(t *tracer, c registry.Cipher, a dfa.Analyzer, m fault.Model, budget int, rng *stats.RNG) (scenario.DFATrial, error) {
	t.begin("scenario.dfa_trial")
	defer t.end()
	out := scenario.DFATrial{RecoveredAt: -1}
	key := make([]byte, c.KeyBytes())
	rng.Bytes(key)
	var inst registry.Instance
	if err := t.span("cipher.key_setup", func() (err error) {
		inst, err = c.New(key)
		return err
	}); err != nil {
		return out, err
	}
	table := c.SBox()
	var pairs []dfa.Pair
	if err := t.span("dfa.collect", func() (err error) {
		pairs, err = dfa.CollectPairs(c, inst, table, budget, m, rng)
		return err
	}); err != nil {
		return out, err
	}
	t.add("dfa.pairs_collected", float64(budget))
	for n := 1; n <= budget; n++ {
		t.begin("dfa.analyze")
		res, err := a.Analyze(pairs[:n], m)
		t.end()
		t.add("dfa.analyze_calls", 1)
		if err != nil {
			return out, err
		}
		out.KeySpaceBits = res.KeySpaceBits
		if res.Unique {
			out.RecoveredAt = n
			out.MasterOK = res.Master != nil && bytes.Equal(res.Master, key)
			t.add("dfa.recoveries", 1)
			t.add("dfa.recovery_pairs", float64(n))
			break
		}
	}
	return out, nil
}

// tracedCacheProbe mirrors the cache-probe trial: the machine's mapper seen
// through the derived LLC geometry, one attack set up from the trial's
// stream, then its whole measurement budget.
func tracedCacheProbe(t *tracer, c registry.Cipher, mapperName string, dg dram.Geometry, g cache.Geometry, cfg cache.ProbeConfig, rng *stats.RNG) (scenario.CacheProbeTrial, error) {
	t.begin("scenario.cache_probe_trial")
	defer t.end()
	var atk *cache.Attack
	if err := t.span("cache.setup", func() error {
		mapper, err := dram.NewNamedMapper(mapperName, dg)
		if err != nil {
			return err
		}
		view, err := cache.NewView(mapper, g, cache.DefaultSliceHash(mapperName))
		if err != nil {
			return err
		}
		atk, err = cache.NewAttack(view, c, cfg, rng)
		return err
	}); err != nil {
		return scenario.CacheProbeTrial{}, err
	}
	t.begin("cache.probe")
	for i := 0; i < cfg.Budget; i++ {
		atk.Step()
	}
	res := atk.Finish()
	t.end()
	t.add("cache.measurements", float64(res.Measurements))
	t.add("cache.nibbles", float64(res.Nibbles))
	t.add("cache.nibble_total", float64(res.NibbleTotal))
	return scenario.CacheProbeTrial{
		Nibbles: res.Nibbles, NibbleTotal: res.NibbleTotal, BytesLeaked: res.BytesLeaked,
		Measurements: res.Measurements, EvictionSets: res.EvictionSets, BitErrors: res.BitErrors,
	}, nil
}

// tracedSteering mirrors core.RunSteeringTrial: attacker buffer touched,
// random pages released into the page frame cache, optional noise, then the
// victim's first touches.
func tracedSteering(t *tracer, cfg core.SteeringConfig) (*core.SteeringResult, error) {
	t.begin("core.steering_trial")
	defer t.end()
	if cfg.ReleasePages <= 0 || cfg.ReleasePages > cfg.AttackerPages {
		return nil, fmt.Errorf("bad ReleasePages %d", cfg.ReleasePages)
	}
	mc := cfg.Machine
	if mc.NumCPUs == 0 {
		mc = kernel.DefaultConfig()
	}
	mc.Seed = cfg.Seed
	var m *kernel.Machine
	if err := t.span("kernel.new_machine", func() (err error) {
		m, err = kernel.NewMachine(mc)
		return err
	}); err != nil {
		return nil, err
	}
	defer countAllocator(t, m)
	rng := stats.NewRNG(cfg.Seed ^ 0x57ee7)

	var attacker *kernel.Process
	var base vm.VirtAddr
	if err := t.span("kernel.touch", func() (err error) {
		if attacker, err = m.Spawn("attacker", cfg.AttackerCPU); err != nil {
			return err
		}
		length := uint64(cfg.AttackerPages) * vm.PageSize
		if base, err = attacker.Mmap(length); err != nil {
			return err
		}
		return attacker.Touch(base, length)
	}); err != nil {
		return nil, err
	}

	res := &core.SteeringResult{}
	if err := t.span("kernel.plant", func() error {
		for _, pi := range rng.Perm(cfg.AttackerPages)[:cfg.ReleasePages] {
			va := base + vm.VirtAddr(pi)*vm.PageSize
			pa, ok := attacker.Translate(va)
			if !ok {
				return fmt.Errorf("attacker page %d not resident", pi)
			}
			res.Planted = append(res.Planted, mm.PFNOf(pa))
			if err := attacker.Munmap(va, vm.PageSize); err != nil {
				return err
			}
		}
		if cfg.AttackerSleeps {
			attacker.Sleep()
		}
		return nil
	}); err != nil {
		return nil, err
	}

	if err := t.span("kernel.steer", func() error {
		if cfg.NoiseProcs > 0 && cfg.NoiseOps > 0 {
			noise, err := trace.SpawnNoise(m, cfg.VictimCPU, cfg.NoiseProcs, rng.Split())
			if err != nil {
				return err
			}
			if err := noise.Churn(cfg.NoiseOps); err != nil {
				return err
			}
		}
		victim, err := m.Spawn("victim", cfg.VictimCPU)
		if err != nil {
			return err
		}
		vbase, err := victim.Mmap(uint64(cfg.VictimRequestPages) * vm.PageSize)
		if err != nil {
			return err
		}
		for p := 0; p < cfg.VictimRequestPages; p++ {
			va := vbase + vm.VirtAddr(p)*vm.PageSize
			if err := victim.Store(va, byte(p)); err != nil {
				return err
			}
			pa, _ := victim.Translate(va)
			res.VictimPFNs = append(res.VictimPFNs, mm.PFNOf(pa))
		}
		return nil
	}); err != nil {
		return nil, err
	}

	hot := res.Planted[len(res.Planted)-1]
	res.FirstPageHit = res.VictimPFNs[0] == hot
	planted := make(map[mm.PFN]bool, len(res.Planted))
	for _, p := range res.Planted {
		planted[p] = true
	}
	for _, p := range res.VictimPFNs {
		if planted[p] {
			res.PlantedReused++
		}
	}
	return res, nil
}
