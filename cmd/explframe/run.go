package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"time"

	"explframe/internal/core"
	"explframe/internal/harness"
	"explframe/internal/scenario"
)

// cmdRun executes one scenario.  Attack scenarios with one trial print the
// classic phase-by-phase report; everything else prints a compact summary.
// Exit codes: 0 on success, 1 when an attack fails to recover the key (so
// scripts can branch on the outcome) or the simulator errors, 2 on bad
// usage.
func cmdRun(args []string) int {
	f := newFlags("run")
	if code, ok := f.parse(args); !ok {
		return code
	}
	camp, err := f.campaign()
	if err != nil {
		return fail(err)
	}
	if len(camp.Specs) != 1 {
		return fail(fmt.Errorf("run executes one scenario; %q holds %d specs (use 'explframe sweep' for campaigns)",
			f.scenarioRef, len(camp.Specs)))
	}
	spec := camp.Specs[0]
	if err := spec.Validate(); err != nil {
		return fail(fmt.Errorf("scenario %q invalid:\n%w", spec.Title(), err))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if spec.Kind == scenario.Attack && spec.Trials == 1 {
		return runSingleAttack(ctx, spec)
	}
	return runSummary(ctx, spec, f.parallel)
}

// runSingleAttack prints the phase-by-phase report of one end-to-end run —
// the classic explframe output.
func runSingleAttack(ctx context.Context, spec scenario.Spec) int {
	cfg, err := spec.AttackConfig()
	if err != nil {
		return fail(err)
	}
	fmt.Printf("ExplFrame attack: %s victim, seed %d\n", cfg.VictimCipher, cfg.Seed)
	fmt.Printf("  machine: %d MiB DRAM, %d CPUs, weak-cell density %g\n",
		cfg.Machine.Geometry.TotalBytes()>>20, cfg.Machine.NumCPUs, cfg.Machine.FaultModel.WeakCellDensity)
	fmt.Printf("  attacker: %d MiB buffer on CPU %d; victim: %d pages on CPU %d\n\n",
		cfg.AttackerMemory>>20, cfg.AttackerCPU, cfg.VictimRequestPages, cfg.VictimCPU)

	atk, err := core.NewAttack(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "setup: %v\n", err)
		return 1
	}
	start := time.Now()
	rep, err := atk.RunContext(ctx)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "interrupted during phase %q\n", rep.Phase)
			return 1
		}
		fmt.Fprintf(os.Stderr, "simulator error: %v\n", err)
		return 1
	}
	elapsed := time.Since(start)

	fmt.Printf("[template] flips found: %d, usable site: %v\n", rep.FlipsTemplated, rep.SiteFound)
	if rep.SiteFound {
		fmt.Printf("           site: page offset %d bit %d (%d->%d), row %d bank %d\n",
			rep.Site.ByteInPage, rep.Site.Bit, rep.Site.From, 1-rep.Site.From,
			rep.Site.Agg.VictimRow, rep.Site.Agg.Bank)
		fmt.Printf("[plant]    released frame PFN %d into the page frame cache\n", rep.PlantedPFN)
		fmt.Printf("[steer]    victim table frame PFN %d — steering %s\n", rep.VictimTablePFN, verdict(rep.SteeringHit))
		fmt.Printf("[rehammer] fault in victim table: %s", verdict(rep.FaultInjected))
		if rep.FaultInjected {
			fmt.Printf(" (table[%#02x])", rep.CorruptIndex)
		}
		fmt.Println()
		if rep.CiphertextsUsed > 0 || rep.KeyRecovered {
			fmt.Printf("[analyse]  %d faulty ciphertexts, residual entropy %.1f bits\n",
				rep.CiphertextsUsed, rep.ResidualEntropy)
		}
	}
	fmt.Printf("[hammer]   %d activations across %d runs\n", rep.Hammer.Activations, rep.Hammer.Pairsentries)
	fmt.Println()
	if rep.Success() {
		fmt.Printf("SUCCESS: recovered key %x in %.1fs\n", rep.RecoveredKey, elapsed.Seconds())
		return 0
	}
	fmt.Printf("FAILED at phase %q: %s (%.1fs)\n", rep.Phase, rep.FailReason, elapsed.Seconds())
	return 1
}

// runSummary executes a non-attack (or multi-trial) scenario and prints its
// aggregate outcome.  Attack-kind scenarios still gate the exit code on key
// recovery.
func runSummary(ctx context.Context, spec scenario.Spec, parallel int) int {
	fmt.Printf("scenario %s: kind %s, %d trials (seed %d)\n", spec.Title(), spec.Kind, spec.Trials, spec.Seed)
	res, err := scenario.Run(ctx, spec, harness.WithWorkers(parallel))
	if err != nil {
		fmt.Fprintf(os.Stderr, "scenario error: %v\n", err)
		return 1
	}
	res.WriteSummary(os.Stdout)
	if spec.Kind == scenario.Attack && res.AttackStats().Key.Successes == 0 {
		return 1
	}
	return 0
}

func verdict(b bool) string {
	if b {
		return "HIT"
	}
	return "miss"
}
