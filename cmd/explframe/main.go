// explframe drives ExplFrame attack scenarios on the simulated stack.
//
// Usage:
//
//	explframe run [flags]        run one scenario and print its report
//	explframe sweep [flags]      run a scenario or campaign sweep, render a table
//	explframe submit [flags]     post a scenario/campaign to an explframed server
//	explframe watch [flags] <id> stream a submitted campaign's per-trial results
//	explframe list [-machines]   list scenario/cache presets, machines, ciphers
//	explframe describe <what>    print a preset's, spec file's or machine's JSON
//	explframe describe machine <name>  print one machine profile's JSON
//
// Scenarios come from three equivalent sources: flags (-cipher, -noise,
// -trr, ...), built-in presets (see `explframe list`), and JSON spec files
// (-scenario spec.json).  All three construct the same scenario.Spec and
// share one execution path, so `explframe run -scenario spec.json`
// reproduces the byte-identical report of the equivalent flag invocation.
// The machine the scenario runs on is an open axis: -machine selects any
// registered profile (see `explframe list -machines`), and spec files may
// embed an inline machine.
//
// Exit codes: 0 success, 1 attack failed (key not recovered) or simulator
// error, 2 usage/validation error (bare flags without a subcommand
// included).
package main

import (
	"fmt"
	"os"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 {
		switch args[0] {
		case "run":
			os.Exit(cmdRun(args[1:]))
		case "sweep":
			os.Exit(cmdSweep(args[1:]))
		case "submit":
			os.Exit(cmdSubmit(args[1:]))
		case "watch":
			os.Exit(cmdWatch(args[1:]))
		case "list":
			os.Exit(cmdList(args[1:]))
		case "describe":
			os.Exit(cmdDescribe(args[1:]))
		case "help", "-h", "-help", "--help":
			usage(os.Stdout)
			os.Exit(0)
		}
	}
	usage(os.Stderr)
	os.Exit(2)
}

func usage(w *os.File) {
	fmt.Fprint(w, `explframe — ExplFrame attack scenarios on the simulated stack

Subcommands:
  run       run one scenario, print a phase-by-phase report (exit 1 if the
            attack fails to recover the key)
  sweep     run a scenario or campaign over many trials, render the success
            table in any report format
  submit    post a scenario or campaign to a running explframed server and
            print its campaign id (same -scenario sources and overrides)
  watch     stream a submitted campaign's per-trial results as JSON lines
            until it finishes (-report also prints the persisted table)
  list      list scenario presets, cache-probe presets, machine profiles and
            registered ciphers (-machines, -fault-models and -cache-presets
            restrict to one catalogue)
  describe  print the canonical JSON, name and hash of a preset, spec file
            or machine profile ('describe machine <name>' is explicit)

Scenario sources (run and sweep):
  -scenario NAME|FILE   a preset name from 'explframe list' or a JSON spec
                        file; flags set on the command line override the
                        loaded spec field by field
  -machine NAME         run on a registered machine profile (see
                        'explframe list -machines'), overriding the spec's
                        profile or inline machine
  (flags only)          the flags alone build the same spec

Run 'explframe <subcommand> -h' for the flag list.
`)
}
