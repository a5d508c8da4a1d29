package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"time"

	"explframe/internal/harness"
	"explframe/internal/report"
	"explframe/internal/scenario"
	"explframe/internal/stats"
)

// cmdSweep runs a scenario (or a whole campaign file) over many trials and
// renders the aggregate table in any report format.  Progress goes to
// stderr; the rendered table is byte-identical at any -parallel value (the
// repo's determinism contract).  SIGINT cancels the campaign mid-flight.
// A single attack-kind scenario renders the per-phase table and exits 1
// when no trial recovered the key (scripts branch on it);
// multi-spec campaigns render one row per scenario and exit 0 unless a
// spec errors.  Duplicate specs in a campaign file are run as written —
// only warned about — since the file is the user's explicit request.
func cmdSweep(args []string) int {
	f := newFlags("sweep")
	if code, ok := f.parse(args); !ok {
		return code
	}
	fmtOut, err := report.ParseFormat(f.format)
	if err != nil {
		return fail(err)
	}
	camp, err := f.campaign()
	if err != nil {
		return fail(err)
	}
	if deduped := camp.Dedup(); len(deduped.Specs) < len(camp.Specs) {
		fmt.Fprintf(os.Stderr, "warning: campaign %q contains %d semantically duplicate spec(s) (same canonical hash); running all as written\n",
			camp.Name, len(camp.Specs)-len(deduped.Specs))
	}
	if err := camp.Validate(); err != nil {
		return fail(fmt.Errorf("campaign %q invalid:\n%w", camp.Name, err))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	start := time.Now()
	results, err := camp.Run(ctx,
		scenario.WithTrialOptions(harness.WithWorkers(f.parallel)),
		scenario.WithProgress(func(e scenario.Event) {
			// Events are self-identifying: the spec's canonical hash names
			// the same scenario in journals, streams and checkpoints.
			if e.Done {
				status := "done"
				if e.Err != nil {
					status = fmt.Sprintf("failed: %v", e.Err)
				}
				fmt.Fprintf(os.Stderr, "[%d/%d] %s #%016x %s\n", e.Index+1, e.Total, e.Spec.Title(), e.SpecHash, status)
				return
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %s #%016x: %d trials...\n", e.Index+1, e.Total, e.Spec.Title(), e.SpecHash, e.Spec.Trials)
		}))
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep error: %v\n", err)
		return 1
	}

	var t *report.Table
	singleAttack := len(results) == 1 && results[0].Spec.Kind == scenario.Attack
	if singleAttack {
		t = attackSweepTable(results[0])
	} else {
		t = scenario.CampaignTable(camp.Name, results)
	}
	// Wall time and worker count go to stderr, not the table: rendered
	// sweep output must be byte-identical at any -parallel.
	fmt.Fprintf(os.Stderr, "%d scenario(s) in %.1fs (workers=%d)\n", len(results), time.Since(start).Seconds(), f.parallel)

	rendered, err := report.Render(t, fmtOut)
	if err != nil {
		fmt.Fprintf(os.Stderr, "render: %v\n", err)
		return 1
	}
	if f.out != "" {
		if err := os.WriteFile(f.out, []byte(rendered), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", f.out)
	} else {
		fmt.Print(rendered)
	}
	if singleAttack && results[0].AttackStats().Key.Successes == 0 {
		return 1
	}
	return 0
}

// attackSweepTable renders the per-phase success rates of one attack
// scenario — the classic multi-trial view of the single-run report.
func attackSweepTable(res *scenario.Result) *report.Table {
	spec := res.Spec
	st := res.AttackStats()
	t := &report.Table{
		ID:    "sweep",
		Title: fmt.Sprintf("per-phase success over %d trials (%s victim, seed %d)", spec.Trials, spec.CipherName(), spec.Seed),
		Claim: "multi-trial view of the end-to-end pipeline: template → plant → steer → re-hammer → PFA",
		Columns: []report.Column{
			{Name: "phase"}, {Name: "event"},
			{Name: "successes"}, {Name: "trials"}, {Name: "rate", Unit: "fraction"},
		},
	}
	for _, row := range []struct {
		phase, event string
		p            stats.Proportion
	}{
		{"template", "usable site found", st.Site},
		{"steer", "frame steered to victim", st.Steer},
		{"rehammer", "fault planted in table", st.Fault},
		{"analyse", "key recovered", st.Key},
	} {
		t.AddRow(report.Str(row.phase), report.Str(row.event),
			report.Int(row.p.Successes), report.Int(row.p.Trials), report.Float(row.p.Rate(), 3))
	}
	if st.Ciphertexts.N() > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("ciphertexts to recovery: %s", st.Ciphertexts.String()))
	}
	return t
}
