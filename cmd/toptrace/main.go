// Command toptrace replays a structured training trace (the JSONL
// file written by `topmine coordinate ... -trace out.jsonl`)
// into a human barrier timeline with straggler attribution: which
// worker gated each sweep barrier, how the run's wall time split
// between sampling, reconciliation and checkpointing, and what the
// elastic recoveries cost.
//
// The report goes to stderr:
//
//	topmine coordinate :7600 -train-workers 2 -corpus c.tpc \
//	        -trace trace.jsonl ...
//	toptrace trace.jsonl
//
// Usage:
//
//	toptrace [-timeline N] [trace.jsonl]
//
// With no positional argument the trace is read from stdin.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"time"
)

// event is the union of the trace fields toptrace reads; Ev
// discriminates. Field names mirror internal/dtrain's trace structs —
// toptrace deliberately parses the wire format rather than importing
// them, so it keeps working on logs from other builds.
type event struct {
	Ev  string  `json:"ev"`
	TMs float64 `json:"t_ms"`

	// run
	TotalSweeps    int   `json:"total_sweeps"`
	StartSweep     int   `json:"start_sweep"`
	TokensPerSweep int64 `json:"tokens_per_sweep"`
	WantWorkers    int   `json:"want_workers"`
	Resumed        bool  `json:"resumed"`

	// delta
	Sweep    int     `json:"sweep"`
	Worker   int     `json:"worker"`
	LagMs    float64 `json:"lag_ms"`
	SampleMs float64 `json:"sample_ms"`
	Bytes    int64   `json:"bytes"`

	// sweep
	ReconcileMs  float64 `json:"reconcile_ms"`
	CheckpointMs float64 `json:"checkpoint_ms"`
	GatingWorker int     `json:"gating_worker"`
	GatingLagMs  float64 `json:"gating_lag_ms"`

	// recovery
	RollbackSweep int    `json:"rollback_sweep"`
	LostWorker    int    `json:"lost_worker"`
	Survivors     int    `json:"survivors"`
	Reaccepted    int    `json:"reaccepted"`
	Cause         string `json:"cause"`

	// finish
	Error string `json:"error"`
}

// barrier is one completed sweep barrier with its worker deltas
// attached, in trace order (the same sweep number recurs when an
// elastic rollback replays sweeps).
type barrier struct {
	ev     event
	deltas []event
}

// workerStats accumulates one worker index's straggler profile across
// every barrier it participated in.
type workerStats struct {
	barriers int
	gated    int
	lagMs    float64 // sum
	sampleMs float64 // sum
	maxLagMs float64
	bytes    int64
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("toptrace: ")
	if err := run(os.Args[1:], os.Stderr); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("toptrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	timeline := fs.Int("timeline", 20, "barriers to show in the timeline: the N slowest by barrier wait (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var in io.Reader = os.Stdin
	name := "stdin"
	if fs.NArg() > 1 {
		return fmt.Errorf("want at most one trace file, have %d", fs.NArg())
	}
	if fs.NArg() == 1 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
		name = fs.Arg(0)
	}

	events, err := parseTrace(in)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if len(events) == 0 {
		return fmt.Errorf("%s: no trace events", name)
	}
	report(events, *timeline, stderr)
	return nil
}

// parseTrace reads a JSONL trace, skipping blank lines. A malformed
// line is an error: a trace either replays exactly or not at all.
func parseTrace(r io.Reader) ([]event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var evs []event
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var ev event
		if err := json.Unmarshal(b, &ev); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		if ev.Ev == "" {
			return nil, fmt.Errorf("line %d: event without ev discriminator", line)
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return evs, nil
}

func report(events []event, timeline int, stderr io.Writer) {
	var runEv, finish *event
	var setups, checkpoints, recoveries []event
	var barriers []barrier
	var pending []event // deltas awaiting their sweep event
	for i := range events {
		ev := &events[i]
		switch ev.Ev {
		case "run":
			if runEv == nil {
				runEv = ev
			}
		case "setup":
			setups = append(setups, *ev)
		case "delta":
			pending = append(pending, *ev)
		case "sweep":
			barriers = append(barriers, barrier{ev: *ev, deltas: pending})
			pending = nil
		case "checkpoint":
			checkpoints = append(checkpoints, *ev)
		case "recovery":
			recoveries = append(recoveries, *ev)
			pending = nil // a barrier that never completed
		case "finish":
			finish = ev
		}
	}

	// Run summary.
	fmt.Fprintf(stderr, "trace: %d barriers, %d checkpoints, %d recoveries, %d epochs\n",
		len(barriers), len(checkpoints), len(recoveries), len(setups))
	if runEv != nil {
		resumed := ""
		if runEv.Resumed {
			resumed = fmt.Sprintf(", resumed from sweep %d", runEv.StartSweep)
		}
		fmt.Fprintf(stderr, "schedule: %d sweeps, %d tokens/sweep, %d workers wanted%s\n",
			runEv.TotalSweeps, runEv.TokensPerSweep, runEv.WantWorkers, resumed)
	}
	wall := events[len(events)-1].TMs - events[0].TMs
	status := "incomplete (no finish event)"
	if finish != nil {
		if finish.Error != "" {
			status = "failed: " + finish.Error
		} else {
			status = "completed"
		}
	}
	fmt.Fprintf(stderr, "wall: %v first to last event, run %s\n", ms(wall), status)

	if len(barriers) == 0 {
		fmt.Fprintln(stderr, "no completed sweep barriers in trace")
		return
	}

	// Phase split: where the sweep loop's time went.
	var sampleMs, reconcileMs, ckptMs float64
	for _, b := range barriers {
		sampleMs += b.ev.SampleMs
		reconcileMs += b.ev.ReconcileMs
		ckptMs += b.ev.CheckpointMs
	}
	total := sampleMs + reconcileMs + ckptMs
	if total > 0 {
		fmt.Fprintf(stderr, "phase split: sample %.1f%% (%v), reconcile %.1f%% (%v), checkpoint %.1f%% (%v)\n",
			100*sampleMs/total, ms(sampleMs),
			100*reconcileMs/total, ms(reconcileMs),
			100*ckptMs/total, ms(ckptMs))
	}

	// Straggler attribution per worker index.
	workers := map[int]*workerStats{}
	for _, b := range barriers {
		for _, d := range b.deltas {
			ws := workers[d.Worker]
			if ws == nil {
				ws = &workerStats{}
				workers[d.Worker] = ws
			}
			ws.barriers++
			ws.lagMs += d.LagMs
			ws.sampleMs += d.SampleMs
			ws.maxLagMs = max(ws.maxLagMs, d.LagMs)
			ws.bytes += d.Bytes
		}
		if ws := workers[b.ev.GatingWorker]; ws != nil {
			ws.gated++
		}
	}
	ids := make([]int, 0, len(workers))
	for id := range workers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	if len(ids) > 0 {
		fmt.Fprintln(stderr, "straggler attribution (which worker gated each barrier):")
		for _, id := range ids {
			ws := workers[id]
			n := float64(ws.barriers)
			fmt.Fprintf(stderr, "  worker %d: gated %d/%d barriers (%.1f%%), mean lag %v (max %v), mean sample %v, %d delta bytes\n",
				id, ws.gated, len(barriers), 100*float64(ws.gated)/float64(len(barriers)),
				ms(ws.lagMs/n), ms(ws.maxLagMs), ms(ws.sampleMs/n), ws.bytes)
		}
	}

	// Barrier timeline: every barrier, or the N slowest by barrier
	// wait when the trace is long.
	show := barriers
	slowest := ""
	if timeline > 0 && len(barriers) > timeline {
		show = append([]barrier(nil), barriers...)
		sort.SliceStable(show, func(i, j int) bool { return show[i].ev.SampleMs > show[j].ev.SampleMs })
		show = show[:timeline]
		sort.SliceStable(show, func(i, j int) bool { return show[i].ev.TMs < show[j].ev.TMs })
		slowest = fmt.Sprintf(" (%d slowest of %d by barrier wait; -timeline 0 shows all)", timeline, len(barriers))
	}
	fmt.Fprintf(stderr, "barrier timeline%s:\n", slowest)
	for _, b := range show {
		line := fmt.Sprintf("  t=%8v sweep %4d: sample %v, reconcile %v, gated by worker %d (+%v)",
			ms(b.ev.TMs), b.ev.Sweep, ms(b.ev.SampleMs), ms(b.ev.ReconcileMs),
			b.ev.GatingWorker, ms(b.ev.GatingLagMs))
		if b.ev.CheckpointMs > 0 {
			line += fmt.Sprintf(", checkpoint %v", ms(b.ev.CheckpointMs))
		}
		fmt.Fprintln(stderr, line)
	}

	for _, r := range recoveries {
		fmt.Fprintf(stderr, "recovery at t=%v: lost worker %d (%s), rolled back to sweep %d, %d survivors, %d re-accepted\n",
			ms(r.TMs), r.LostWorker, r.Cause, r.RollbackSweep, r.Survivors, r.Reaccepted)
	}
}

// ms renders a millisecond quantity with time.Duration's adaptive
// formatting, keeping microsecond barriers and minute sweeps equally
// readable.
func ms(v float64) time.Duration {
	return time.Duration(v * float64(time.Millisecond)).Round(time.Microsecond)
}
