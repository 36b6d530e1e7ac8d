package main

import (
	"fmt"
	"sync"
	"time"
)

// setups is how many times each run launches the server from scratch; the
// reported set-up time is their median, and the last launch serves the
// timed phase.
const setups = 3

// setUp launches heatmapd setups times with fresh state each time (dirArgs
// gives per-launch arguments, such as a fresh -snapshot-dir), reports the
// median exec-to-healthy time as setup_s and returns the last process.
func (b *bench) setUp(args []string, dirArgs func(i int) []string) (*proc, error) {
	var times []float64
	var p *proc
	for i := 0; i < setups; i++ {
		if p != nil {
			p.kill()
		}
		var extra []string
		if dirArgs != nil {
			extra = dirArgs(i)
		}
		np, d, err := b.launch(append(append([]string(nil), args...), extra...))
		if err != nil {
			return nil, err
		}
		p = np
		times = append(times, d.Seconds())
	}
	b.setE2E("setup_s", "s", median(times), len(times))
	return p, nil
}

// phase measures the server's CPU over the timed phase.
type phase struct {
	p     *proc
	ticks int64
	start time.Time
}

func startPhase(p *proc) (*phase, error) {
	t, err := p.cpuTicks()
	return &phase{p: p, ticks: t, start: time.Now()}, err
}

// finish reports the server's CPU time over the phase divided by ops as
// cpu_ms_per_op.
func (ph *phase) finish(b *bench, ops int) error {
	t, err := ph.p.cpuTicks()
	if err != nil {
		return err
	}
	if ops == 0 {
		return fmt.Errorf("the timed phase completed no operation")
	}
	b.setE2E("cpu_ms_per_op", "ms", ms(time.Duration(t-ph.ticks)*clockTick)/float64(ops), ops)
	return nil
}

// openLoop is a reader that sends one request every 1/rate seconds
// whatever the server's pace, on one connection. Each request is timed from
// the moment it was due, so a stall also counts against the requests queued
// behind it.
type openLoop struct {
	rate float64

	latency   []time.Duration // due -> response complete, successful requests
	late      []time.Duration // due -> sent, every request
	attempted int
	failed    int
	kept      []keptRead // successful responses, when asked to keep them
	backlog   bool       // lateness grew by more than a period over the run
}

// keptRead is one successful response of an open-loop reader.
type keptRead struct {
	batch int // index into the batches the reader was given
	body  []byte
}

// run sends batches[i % len] to path, one every period from start until
// length has elapsed.
func (o *openLoop) run(c *conn, path string, batches []readBatch, start time.Time, length time.Duration, keep bool) {
	period := time.Duration(float64(time.Second) / o.rate)
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if due.Sub(start) >= length {
			break
		}
		time.Sleep(time.Until(due))
		o.late = append(o.late, time.Since(due))
		bi := i % len(batches)
		r := c.do("POST", path, batches[bi].body)
		o.attempted++
		if !r.ok() {
			o.failed++
			continue
		}
		o.latency = append(o.latency, time.Since(due))
		if keep {
			o.kept = append(o.kept, keptRead{batch: bi, body: r.body})
		}
	}
	if n := len(o.late); n >= 8 {
		first := median(msList(o.late[:n/4]))
		last := median(msList(o.late[n-n/4:]))
		o.backlog = last-first > ms(period)
	}
}

// start runs the reader on its own goroutine; wait blocks until it ends.
func (o *openLoop) start(c *conn, path string, batches []readBatch, start time.Time, length time.Duration, keep bool) (wait func()) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		o.run(c, path, batches, start, length, keep)
	}()
	return wg.Wait
}

// merge books the reader's requests and reports its metrics.
func (o *openLoop) merge(b *bench, name string) {
	b.attempted += o.attempted
	b.failed += o.failed
	b.readMetrics(o.latency)
	b.setLayer("gen.late_p99_ms", "ms", pct(msList(o.late), 0.99), len(o.late))
	grew := 0.0
	if o.backlog {
		grew = 1
	}
	b.setLayer("gen.backlog_grew", "count", grew, len(o.late))
	b.note("%s reader: open loop, %.0f req/s, 1 connection, %d sent, lateness p99 %.3f ms, backlog grew: %v",
		name, o.rate, len(o.late), pct(msList(o.late), 0.99), o.backlog)
}
