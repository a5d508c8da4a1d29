package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"explframe/internal/harness"
	"explframe/internal/scenario"
	"explframe/internal/service"
)

// liveServer is an in-process explframed: service.New behind a loopback
// listener, and one client whose transport keeps a single connection.
type liveServer struct {
	srv       *service.Server
	hs        *http.Server
	served    chan struct{}
	transport *http.Transport
	client    *service.Client
}

// bootServer starts a server on the journal and store under dir.
// service.New replays the journal and resumes any unfinished campaign
// before it returns.
func bootServer(dir string) (*liveServer, error) {
	srv, err := service.New(service.Config{
		Journal:      filepath.Join(dir, "journal.jsonl"),
		Store:        filepath.Join(dir, "store"),
		TrialWorkers: 1,
		SpecWorkers:  1,
		Log:          log.New(io.Discard, "", 0),
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown()
		return nil, err
	}
	s := &liveServer{
		srv:       srv,
		hs:        &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second},
		served:    make(chan struct{}),
		transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
	s.client = &service.Client{Base: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: s.transport}}
	go func() {
		defer close(s.served)
		s.hs.Serve(ln)
	}()
	return s, nil
}

// close stops the campaigns and open streams, then the HTTP server, and
// waits until the serving goroutine has returned.
func (s *liveServer) close() error {
	err := s.srv.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if herr := s.hs.Shutdown(ctx); herr != nil && err == nil {
		err = herr
	}
	<-s.served
	s.transport.CloseIdleConnections()
	return err
}

// serviceRun is one campaign submitted and streamed to its end.
type serviceRun struct {
	id        string
	lines     []service.StreamLine
	latencyMS []float64
	firstMS   float64
	submitMS  float64
	report    []byte
	elapsed   time.Duration
}

// calls counts HTTP calls and the ones that failed.
type calls struct{ attempted, failed int }

// do runs one HTTP call and counts it.
func (c *calls) do(fn func() error) error {
	c.attempted++
	err := fn()
	if err != nil {
		c.failed++
	}
	return err
}

// submitAndStream submits camp, streams it to its terminal status, timing
// each trial line as it arrives, and fetches the report.
func submitAndStream(s *liveServer, camp scenario.Campaign, c *calls) (*serviceRun, error) {
	ctx := context.Background()
	run := &serviceRun{firstMS: -1}
	start := time.Now()
	var st service.CampaignStatus
	if err := c.do(func() (err error) {
		st, err = s.client.Submit(ctx, camp)
		return err
	}); err != nil {
		return nil, err
	}
	run.id = st.ID
	run.submitMS = msBetween(start, time.Now())
	last := start
	var term service.StreamLine
	if err := c.do(func() (err error) {
		term, err = s.client.Stream(ctx, st.ID, func(l service.StreamLine) error {
			now := time.Now()
			run.lines = append(run.lines, l)
			run.latencyMS = append(run.latencyMS, msBetween(last, now))
			if run.firstMS < 0 {
				run.firstMS = msBetween(start, now)
			}
			last = now
			return nil
		})
		if err == nil && (term.Status != "done" || len(run.lines) != st.TotalTrials) {
			err = fmt.Errorf("stream ended %q after %d of %d trials", term.Status, len(run.lines), st.TotalTrials)
		}
		return err
	}); err != nil {
		return nil, err
	}
	if err := c.do(func() (err error) {
		run.report, err = s.client.ReportBytes(ctx, st.ID)
		return err
	}); err != nil {
		return nil, err
	}
	run.elapsed = time.Since(start)
	return run, nil
}

// ordered returns a run's trial lines in spec and trial order.
func (r *serviceRun) ordered() []service.StreamLine {
	lines := append([]service.StreamLine(nil), r.lines...)
	sort.Slice(lines, func(i, j int) bool {
		if lines[i].Spec != lines[j].Spec {
			return lines[i].Spec < lines[j].Spec
		}
		return lines[i].Trial < lines[j].Trial
	})
	return lines
}

// writeHalfJournal writes, through the public journal API, a fresh journal
// holding the campaign and the first half of its trials in spec and trial
// order: the state a server killed halfway leaves behind.
func writeHalfJournal(path string, camp scenario.Campaign, run *serviceRun) (int, error) {
	j, _, err := service.OpenJournal(path)
	if err != nil {
		return 0, err
	}
	if err := j.Campaign(run.id, camp); err != nil {
		j.Close()
		return 0, err
	}
	lines := run.ordered()
	half := len(lines) / 2
	for _, l := range lines[:half] {
		if err := j.Trial(run.id, l.Spec, camp.Specs[l.Spec].Hash(), l.Trial, *l.Outcome); err != nil {
			j.Close()
			return 0, err
		}
	}
	return half, j.Close()
}

// resumeStats is one resume of a campaign from a half-written journal.
type resumeStats struct {
	seconds, replayMS   float64
	resumed, recomputed int
}

// resume boots a second server on a half-written journal of run's
// campaign, streams the resumed campaign to its end and checks that it
// resumed the journaled half, recomputed the rest, and served the report
// the uninterrupted run served.
func resume(dir string, camp scenario.Campaign, run *serviceRun, c *calls, res *result) (resumeStats, error) {
	var rs resumeStats
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return rs, err
	}
	journal := filepath.Join(dir, "journal.jsonl")
	half, err := writeHalfJournal(journal, camp, run)
	if err != nil {
		return rs, err
	}
	replayStart := time.Now()
	j, _, err := service.OpenJournal(journal)
	if err != nil {
		return rs, err
	}
	rs.replayMS = msBetween(replayStart, time.Now())
	if err := j.Close(); err != nil {
		return rs, err
	}

	ctx := context.Background()
	start := time.Now()
	s, err := bootServer(dir)
	if err != nil {
		return rs, err
	}
	var report []byte
	var st service.CampaignStatus
	err = c.do(func() error {
		term, err := s.client.Stream(ctx, run.id, nil)
		if err == nil && term.Status != "done" {
			err = fmt.Errorf("resumed campaign ended %q", term.Status)
		}
		return err
	})
	if err == nil {
		err = c.do(func() (err error) {
			report, err = s.client.ReportBytes(ctx, run.id)
			return err
		})
	}
	rs.seconds = time.Since(start).Seconds()
	if err == nil {
		err = c.do(func() (err error) {
			st, err = s.client.Status(ctx, run.id)
			return err
		})
	}
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return rs, err
	}
	rs.resumed, rs.recomputed = st.ResumedTrials, st.DoneTrials-st.ResumedTrials
	if !bytes.Equal(report, run.report) {
		res.fail(1, "campaign %s: resumed report differs from the uninterrupted one", run.id)
	}
	if rs.resumed != half || rs.recomputed != st.TotalTrials-half {
		res.fail(1, "campaign %s: resume merged %d and recomputed %d trials, want %d and %d",
			run.id, rs.resumed, rs.recomputed, half, st.TotalTrials-half)
	}
	return rs, nil
}

// serviceSetup boots a server on a fresh journal, runs a warm-up campaign
// through it, and boots it again on the same journal, which replays the
// warm-up campaign.  The second server is returned running.
func serviceSetup(dir string, seed uint64, c *calls) (*liveServer, error) {
	s, err := bootServer(dir)
	if err != nil {
		return nil, err
	}
	warm, err := delivered(seeded("service-resume warm-up", seed, -1, []scenario.Spec{
		scenario.New(scenario.WithKind(scenario.Steering), scenario.WithTrials(4)),
		scenario.New(scenario.WithKind(scenario.PFA), scenario.WithTrials(4)),
	}))
	if err == nil {
		_, err = submitAndStream(s, warm, c)
	}
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if s, err = bootServer(dir); err != nil {
		return nil, err
	}
	if err := c.do(func() error {
		_, err := s.client.List(context.Background())
		return err
	}); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// runServiceWorkload drives the in-process service in a closed loop: each
// round submits a campaign, streams it to its end and fetches its report,
// then resumes the same campaign on a second server from a journal holding
// its first half.  Round 0's report must equal the table of a direct
// Campaign.Run.  A traced run also runs every round directly and through
// the traced drivers, and appends the round's outcomes to a scratch
// journal one by one.
func runServiceWorkload(o options) *result {
	res := &result{}
	c := &calls{}
	defer func() { res.attempted, res.failed = res.attempted+c.attempted, res.failed+c.failed }()
	root, err := os.MkdirTemp(o.scratch, "perfbench-service-")
	if err != nil {
		res.fail(1, "scratch: %v", err)
		return res
	}
	defer os.RemoveAll(root)
	dir := func(name string) string { return filepath.Join(root, name) }

	var setups []float64
	var s *liveServer
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				res.fail(1, "setup: %v", err)
				return res
			}
		}
		start := time.Now()
		if s, err = serviceSetup(dir(fmt.Sprintf("server-setup-%d", i)), o.seed+uint64(i), c); err != nil {
			res.fail(1, "setup: %v", err)
			return res
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() {
		if err := s.close(); err != nil {
			res.fail(1, "shutdown: %v", err)
		}
	}()

	var tr *tracer
	var ss serviceStats
	if o.traced {
		tr = newTracer()
	}
	var camp0 scenario.Campaign
	var run0 *serviceRun
	var latencies, firsts, resumes, rates []float64
	var trials, rounds int
	var timed time.Duration
	var untracedMS, tracedMS float64
	start := time.Now()
	for r := 0; r == 0 || time.Since(start).Seconds() < o.seconds; r++ {
		if r > 0 && r%roundsPerServer == 0 {
			// A server keeps every campaign it ran in memory; a fresh one
			// every few rounds keeps peak memory independent of how many
			// rounds the host's speed allows.
			if err := s.close(); err != nil {
				res.fail(1, "round %d: %v", r, err)
				break
			}
			next, err := bootServer(dir(fmt.Sprintf("server-%d", r)))
			if err != nil {
				res.fail(1, "round %d: %v", r, err)
				break
			}
			s = next
		}
		camp, err := delivered(serviceRound(o.seed, r))
		if err != nil {
			res.fail(1, "round %d: %v", r, err)
			break
		}
		run, err := submitAndStream(s, camp, c)
		if err != nil {
			res.problems = append(res.problems, fmt.Sprintf("round %d: %v", r, err))
			break
		}
		if r == 0 {
			camp0, run0 = camp, run
		}
		rounds++
		trials += len(run.lines)
		timed += run.elapsed
		rates = append(rates, float64(len(run.lines))/run.elapsed.Seconds())
		latencies = append(latencies, run.latencyMS...)
		firsts = append(firsts, run.firstMS)
		ss.submitMS += run.submitMS

		rs, err := resume(dir(fmt.Sprintf("resume-%d", r)), camp, run, c, res)
		if err != nil {
			res.problems = append(res.problems, fmt.Sprintf("round %d resume: %v", r, err))
			break
		}
		os.RemoveAll(dir(fmt.Sprintf("resume-%d", r)))
		resumes = append(resumes, rs.seconds)
		ss.rounds++
		ss.replayMS += rs.replayMS
		ss.resumed += float64(rs.resumed)
		ss.recomputed += float64(rs.recomputed)
		if tr != nil {
			u, t, err := traceServiceRound(tr, &ss, dir(fmt.Sprintf("append-%d", r)), camp, run, res)
			if err != nil {
				res.problems = append(res.problems, fmt.Sprintf("round %d traced: %v", r, err))
				break
			}
			untracedMS += u
			tracedMS += t
		}
	}
	if run0 == nil {
		return res
	}

	res.attempted++
	direct, err := camp0.Run(context.Background(), scenario.WithTrialOptions(harness.WithWorkers(1)))
	if err != nil {
		res.fail(1, "direct run of round 0: %v", err)
	} else if !bytes.Equal(tableJSON(camp0.Name, direct), run0.report) {
		res.fail(1, "round 0: the service's report differs from the direct CampaignTable")
	}
	if o.seed == defaultSeed {
		outs := make([][]*scenario.TrialOutcome, 1)
		for _, l := range run0.ordered() {
			outs[0] = append(outs[0], l.Outcome)
		}
		if got := digest(outs); got != servicePinned {
			res.fail(1, "round 0 outcome digest %s, pinned %s", got, servicePinned)
		}
	} else {
		res.note("held-out seed: the pinned round-0 digest is not checked")
	}

	tail, tailMS, beyond := tail(latencies)
	res.note("round throughputs (1/s): %.4g", rates)
	res.note("trials: %d in %d campaigns over %.3f s; trial_ms_tail is p%g with %d of %d samples beyond it",
		trials, rounds, timed.Seconds(), tail, beyond, len(latencies))
	res.endToEnd = endToEnd(median(rates), latencies, tailMS, median(firsts), median(setups), median(resumes))
	if tr != nil {
		ss.serviceTPS = median(rates)
		res.layers = layerMetrics(tr, ratio(untracedMS, tracedMS), ss)
	}
	return res
}

// servicePinned is the digest of round 0's outcomes at defaultSeed.
const servicePinned = "e04c82c9b374f5b9"

// roundsPerServer is how many rounds one server runs before the workload
// moves to a fresh one.
const roundsPerServer = 4

// traceServiceRound runs the round's campaign directly (untraced, for the
// service overhead ratio) and through the traced drivers, checks both
// against the outcomes the service streamed, and appends those outcomes
// one by one to a scratch journal.  It returns the untraced and traced
// trial time in milliseconds.
func traceServiceRound(tr *tracer, ss *serviceStats, dir string, camp scenario.Campaign, run *serviceRun, res *result) (untracedMS, tracedMS float64, err error) {
	lines := run.ordered()
	direct := runRound(camp)
	if direct.err != nil {
		return 0, 0, direct.err
	}
	ss.directRates = append(ss.directRates, ratio(float64(direct.completed()), direct.elapsed.Seconds()))
	n := 0
	for i, spec := range camp.Specs {
		for k := 0; k < spec.Trials; k++ {
			served := lines[n].Outcome
			n++
			untracedMS += direct.latencyMS[n-1]
			start := time.Now()
			got, err := tracedTrial(tr, spec, k)
			tracedMS += msBetween(start, time.Now())
			res.attempted++
			if err != nil || !sameOutcome(&got, served) || !sameOutcome(direct.outcomes[i][k], served) {
				res.fail(1, "%s trial %d: service, direct and traced outcomes differ (%v)", spec.Title(), k, err)
			}
		}
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "journal.jsonl")
	j, _, err := service.OpenJournal(path)
	if err != nil {
		return 0, 0, err
	}
	for _, l := range lines {
		start := time.Now()
		if err := j.Trial(run.id, l.Spec, camp.Specs[l.Spec].Hash(), l.Trial, *l.Outcome); err != nil {
			j.Close()
			return 0, 0, err
		}
		ss.appendUS = append(ss.appendUS, float64(time.Since(start))/1e3)
	}
	if err := j.Close(); err != nil {
		return 0, 0, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	ss.journalBytes += float64(len(data))
	ss.journalLines += float64(bytes.Count(data, []byte{'\n'}))
	if got := bytes.Count(data, []byte{'\n'}); got != len(lines) {
		return 0, 0, errors.New("scratch journal line count differs from the trials appended")
	}
	return untracedMS, tracedMS, nil
}
