package main

import (
	"bytes"
	"errors"
	"fmt"

	"explframe/internal/cipher/registry"
	"explframe/internal/core"
	"explframe/internal/fault/pfa"
	"explframe/internal/kernel"
	"explframe/internal/mm"
	"explframe/internal/rowhammer"
	"explframe/internal/stats"
	"explframe/internal/trace"
	"explframe/internal/vm"
)

// tracedAttack runs one attack trial with a span around every call into a
// layer.  It makes the same public calls as core.NewAttack followed by
// (*core.Attack).Run, in the same order and with the same randomness, so it
// returns the same Report; the equivalence test pins that.
func tracedAttack(t *tracer, cfg core.Config) (rep *core.Report, err error) {
	t.begin("core.attack_trial")
	defer t.end()

	if cfg.Machine.NumCPUs == 0 {
		cfg.Machine = kernel.DefaultConfig()
	}
	cfg.Machine.Seed = cfg.Seed
	c, ok := registry.Get(cfg.VictimCipher)
	if !ok {
		return nil, fmt.Errorf("unknown victim cipher %q", cfg.VictimCipher)
	}
	var m *kernel.Machine
	if err := t.span("kernel.new_machine", func() (err error) {
		m, err = kernel.NewMachine(cfg.Machine)
		return err
	}); err != nil {
		return nil, err
	}
	if cfg.AttackerCPU >= m.NumCPUs() || cfg.VictimCPU >= m.NumCPUs() {
		return nil, errors.New("cpu out of range")
	}
	sbox := c.SBox()
	rng := stats.NewRNG(cfg.Seed ^ 0xa77ac)
	defer countMachine(t, m)

	rep = &core.Report{Phase: core.PhaseSetup, CorruptIndex: -1}
	var attacker *kernel.Process
	var base vm.VirtAddr
	if err := t.span("kernel.touch", func() (err error) {
		if attacker, err = m.Spawn("attacker", cfg.AttackerCPU); err != nil {
			return err
		}
		if base, err = attacker.Mmap(cfg.AttackerMemory); err != nil {
			return err
		}
		return attacker.Touch(base, cfg.AttackerMemory)
	}); err != nil {
		return rep, err
	}

	// usable mirrors the attack's flip filter: right page offset, a bit
	// that reaches the cipher's datapath, a polarity that changes the byte.
	usable := func(f rowhammer.FlipSite) bool {
		off := cfg.VictimTableOffset
		if f.ByteInPage < off || f.ByteInPage >= off+c.TableLen() {
			return false
		}
		if int(f.Bit) >= c.EntryBits() {
			return false
		}
		return (sbox[f.ByteInPage-off]>>f.Bit)&1 == f.From&1
	}
	rep.Phase = core.PhaseTemplate
	var engine *rowhammer.Engine
	var site rowhammer.FlipSite
	var all []rowhammer.FlipSite
	var found bool
	err = t.span("rowhammer.template", func() (err error) {
		engine = rowhammer.New(cfg.Hammer, m, attacker)
		site, all, found, err = engine.TemplateUntil(base, cfg.AttackerMemory, usable)
		return err
	})
	rep.FlipsTemplated = len(all)
	rep.Hammer = engine.Stats()
	rep.TemplateHammer = rep.Hammer
	t.add("rowhammer.template_activations", float64(rep.TemplateHammer.Activations))
	t.add("rowhammer.flips_templated", float64(len(all)))
	if err != nil {
		return rep, err
	}
	if !found {
		rep.FailReason = "no usable flip in attacker region"
		return rep, nil
	}
	t.add("rowhammer.usable_sites", 1)
	rep.SiteFound = true
	rep.Site = site

	rep.Phase = core.PhasePlant
	if err := t.span("kernel.plant", func() error {
		pa, ok := attacker.Translate(site.PageVA)
		if !ok {
			return errors.New("templated page not resident")
		}
		rep.PlantedPFN = mm.PFNOf(pa)
		if err := attacker.Munmap(site.PageVA, vm.PageSize); err != nil {
			return err
		}
		if cfg.AttackerSleeps {
			attacker.Sleep()
		}
		return nil
	}); err != nil {
		return rep, err
	}

	var victim *trace.Victim
	if err := t.span("kernel.steer", func() error {
		if cfg.NoiseProcs > 0 && cfg.NoiseOps > 0 {
			if err := t.span("trace.noise", func() error {
				noise, err := trace.SpawnNoise(m, cfg.VictimCPU, cfg.NoiseProcs, rng.Split())
				if err != nil {
					return err
				}
				return noise.Churn(cfg.NoiseOps)
			}); err != nil {
				return err
			}
		}
		rep.Phase = core.PhaseSteer
		if err := t.span("trace.spawn_victim", func() (err error) {
			victim, err = trace.SpawnVictim(m, cfg.VictimCPU, cfg.VictimCipher,
				cfg.VictimKey, cfg.VictimRequestPages, cfg.VictimTableOffset)
			return err
		}); err != nil {
			return err
		}
		vpa, ok := victim.Proc.Translate(victim.TablePage())
		if !ok {
			return errors.New("victim table not resident")
		}
		rep.VictimTablePFN = mm.PFNOf(vpa)
		rep.SteeringHit = rep.VictimTablePFN == rep.PlantedPFN
		if cfg.AttackerSleeps {
			attacker.Wake()
		}
		return nil
	}); err != nil {
		return rep, err
	}
	t.add("core.steered", 1)
	if rep.SteeringHit {
		t.add("core.steering_hits", 1)
	}

	cleanPT := make([]byte, c.BlockSize())
	rng.Bytes(cleanPT)
	var cleanCT []byte
	if err := t.span("cipher.victim_encrypt", func() (err error) {
		cleanCT, err = victim.Encrypt(cleanPT)
		return err
	}); err != nil {
		return rep, err
	}

	rep.Phase = core.PhaseRehammer
	var indices []int
	var values []byte
	if err := t.span("rowhammer.rehammer", func() (err error) {
		if err := engine.HammerDefault(site.Agg); err != nil {
			return err
		}
		rep.Hammer = engine.Stats()
		indices, values, err = victim.TableCorruptions()
		return err
	}); err != nil {
		return rep, err
	}
	rep.FaultInjected = len(indices) > 0
	rep.CorruptIndices = indices
	rep.CorruptIndex = -1
	if len(indices) > 0 {
		rep.CorruptIndex = indices[0]
	}
	t.add("core.rehammered", 1)
	if rep.FaultInjected {
		t.add("core.faults_injected", 1)
	}
	if !rep.FaultInjected && !cfg.CollectOnMiss {
		rep.FailReason = "fault did not reach the victim table"
		return rep, nil
	}

	rep.Phase = core.PhaseAnalyse
	if err := tracedAnalyse(t, cfg, c, sbox, rng, rep, victim, indices, values, cleanPT, cleanCT); err != nil {
		return rep, err
	}
	t.add("pfa.analyses", 1)
	t.add("pfa.ciphertexts_used", float64(rep.CiphertextsUsed))
	if rep.KeyRecovered {
		rep.Phase = core.PhaseDone
	} else if rep.FailReason == "" {
		rep.FailReason = "fault analysis did not converge within the ciphertext budget"
	}
	return rep, nil
}

// tracedAnalyse mirrors the attack's persistent fault analysis: known-fault
// recovery for one corrupted entry, multi-fault recovery for several, with
// ciphertexts collected in check-cadence batches.
func tracedAnalyse(t *tracer, cfg core.Config, c registry.Cipher, sb []byte, rng *stats.RNG, rep *core.Report, victim *trace.Victim, indices []int, values []byte, cleanPT, cleanCT []byte) error {
	collector := pfa.NewCollector(c)
	mask := byte(1<<uint(c.EntryBits()) - 1)
	var yStars, yPrimes []byte
	for j, idx := range indices {
		if values[j]&mask == sb[idx]&mask {
			continue
		}
		yStars = append(yStars, sb[idx]&mask)
		yPrimes = append(yPrimes, values[j]&mask)
	}
	if len(yStars) == 0 {
		if rep.FaultInjected {
			rep.FailReason = "corrupted table bits never reach the cipher datapath"
			return nil
		}
		yStars = []byte{sb[rep.Site.ByteInPage-cfg.VictimTableOffset]}
		yPrimes = []byte{yStars[0] ^ (1 << uint(rep.Site.Bit))}
	}
	recoverKey := func() (master []byte, err error) {
		t.begin("pfa.recover")
		defer t.end()
		if len(yStars) == 1 {
			return collector.RecoverMasterKnownFault(yStars[0], cleanPT, cleanCT)
		}
		return collector.RecoverMasterMultiFaultWithPair(yStars, yPrimes, cleanPT, cleanCT)
	}

	checkEvery := 64
	if c.EntryBits() >= 8 {
		checkEvery = 512
	}
	bs := c.BlockSize()
	ptBuf := make([]byte, checkEvery*bs)
	pts := make([][]byte, checkEvery)
	for i := range pts {
		pts[i] = ptBuf[i*bs : (i+1)*bs]
	}
	for n := 0; n < cfg.Ciphertexts; {
		chunk := checkEvery
		if rem := cfg.Ciphertexts - n; rem < chunk {
			chunk = rem
		}
		for i := 0; i < chunk; i++ {
			rng.Bytes(pts[i])
		}
		var cts [][]byte
		if err := t.span("cipher.victim_encrypt", func() (err error) {
			cts, err = victim.EncryptBatch(pts[:chunk])
			return err
		}); err != nil {
			return err
		}
		if err := t.span("pfa.observe", func() error { return collector.ObserveBatch(cts) }); err != nil {
			return err
		}
		n += chunk
		master, err := recoverKey()
		if err != nil {
			if errors.Is(err, pfa.ErrUnderdetermined) {
				continue
			}
			if errors.Is(err, pfa.ErrInconsistent) {
				rep.FailReason = fmt.Sprintf("observations inconsistent with the %d-fault hypothesis", len(yStars))
				break
			}
			return err
		}
		rep.CiphertextsUsed = int(collector.N())
		rep.ResidualEntropy = collector.ResidualEntropy()
		rep.RecoveredKey = master
		rep.KeyRecovered = bytes.Equal(master, cfg.VictimKey)
		if !rep.KeyRecovered {
			rep.FailReason = "recovered key does not match victim key"
		}
		return nil
	}
	rep.CiphertextsUsed = int(collector.N())
	rep.ResidualEntropy = collector.ResidualEntropy()
	return nil
}

// countMachine adds the DRAM device and page allocator counters of one
// finished trial's machine.
func countMachine(t *tracer, m *kernel.Machine) {
	d := m.DRAM().Stats()
	t.add("dram.activations", float64(d.Activations))
	t.add("dram.row_hits", float64(d.RowHits))
	t.add("dram.bit_flips", float64(d.BitFlips))
	t.add("dram.trr_refreshes", float64(d.TRRRefreshes))
	t.add("dram.ecc_corrected", float64(d.ECCCorrected))
	countAllocator(t, m)
}

// countAllocator adds the page frame cache counters of every zone.
func countAllocator(t *tracer, m *kernel.Machine) {
	for _, zt := range []mm.ZoneType{mm.ZoneDMA, mm.ZoneDMA32, mm.ZoneNormal} {
		if m.Phys().HasZone(zt) {
			z := m.Phys().Stats(zt)
			t.add("mm.pcp_hits", float64(z.PCPHits))
			t.add("mm.pcp_misses", float64(z.PCPMisses))
		}
	}
}
