package scenario

import (
	"fmt"

	"explframe/internal/report"
)

// CampaignTable renders one row per scenario with the kind-appropriate
// headline success metric — the table `explframe sweep` prints for
// campaigns and the one the service persists into the report store when a
// campaign completes.  Nil results (failed specs) are skipped.  Because
// every cell is computed from the deterministic per-trial outcomes, the
// rendered table is byte-identical however the campaign was executed —
// one shot, any worker count, or resumed from a checkpoint.
func CampaignTable(name string, results []*Result) *report.Table {
	t := &report.Table{
		ID:    "campaign",
		Title: fmt.Sprintf("campaign %s: headline success per scenario", name),
		Claim: "declarative scenario grid executed through internal/scenario",
		Columns: []report.Column{
			{Name: "scenario"}, {Name: "kind"}, {Name: "trials"},
			{Name: "success", Unit: "fraction"}, {Name: "detail"},
		},
	}
	for _, res := range results {
		if res == nil {
			continue
		}
		spec := res.Spec
		var rate float64
		var detail string
		if def, ok := lookupKind(spec.Kind); ok {
			rate, detail = def.headline(res)
		}
		t.AddRow(report.Str(spec.Title()), report.Str(string(spec.Kind)),
			report.Int(spec.Trials), report.Float(rate, 3), report.Str(detail))
	}
	return t
}
