package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"sync"
	"time"
)

// span is one timed call into a layer of the library, or one replayed
// operation enclosing such calls.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	// AllocBytes is the heap allocated while the span was open, recorded
	// only for spans opened with beginAlloc.
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
}

// tracer records spans in memory; they are written out once, at the end of
// the replay. The replay is one goroutine, so open spans form a stack. A nil
// *tracer records nothing, which is how the untraced output checks call the
// same layer sequence.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int

	// Runtime sampling: peak heap while the replay runs, and the GC share
	// of CPU over it.
	stop     chan struct{}
	done     sync.WaitGroup
	once     sync.Once
	heapPeak uint64
	cpu0     [2]float64
	gcFrac   float64
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

var cpuSample = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func cpuSeconds() [2]float64 {
	metrics.Read(cpuSample)
	return [2]float64{cpuSample[0].Value.Float64(), cpuSample[1].Value.Float64()}
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), stop: make(chan struct{}), cpu0: cpuSeconds()}
	t.done.Add(1)
	go func() {
		defer t.done.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-t.stop:
				return
			case <-tick.C:
				metrics.Read(s)
				t.heapPeak = max(t.heapPeak, s[0].Value.Uint64())
			}
		}
	}()
	return t
}

// finish stops runtime sampling and returns the peak live heap in MiB and
// the share of CPU time the garbage collector took since the tracer
// started. It may be called more than once, and on a nil tracer.
func (t *tracer) finish() (heapPeakMB, gcFrac float64) {
	if t == nil {
		return 0, 0
	}
	t.once.Do(func() {
		close(t.stop)
		t.done.Wait()
		cpu := cpuSeconds()
		if total := cpu[1] - t.cpu0[1]; total > 0 {
			t.gcFrac = (cpu[0] - t.cpu0[0]) / total
		}
	})
	return float64(t.heapPeak) / (1 << 20), t.gcFrac
}

// begin opens a span named name under the innermost open span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

// beginAlloc is begin, additionally recording the bytes the span allocates.
func (t *tracer) beginAlloc(name string) int {
	id := t.begin(name)
	if t != nil {
		t.spans[id].AllocBytes = heapAllocs()
	}
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	if s.AllocBytes != 0 {
		s.AllocBytes = heapAllocs() - s.AllocBytes
	}
	t.open = t.open[:len(t.open)-1]
}

// layerStats summarizes the spans of one name.
type layerStats struct {
	durMS   []float64 // per span, wall time
	allocMB []float64 // per span, for spans opened with beginAlloc
	selfMS  float64   // total self time: duration minus child spans
}

// summarize groups the spans by name. Children never overlap (the replay is
// sequential), so a span's self time is its duration minus the sum of its
// children's durations.
func (t *tracer) summarize() map[string]*layerStats {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*layerStats{}
	for i, s := range t.spans {
		ls := out[s.Name]
		if ls == nil {
			ls = &layerStats{}
			out[s.Name] = ls
		}
		d := s.End - s.Start
		ls.durMS = append(ls.durMS, float64(d)/1e6)
		if s.AllocBytes != 0 {
			ls.allocMB = append(ls.allocMB, float64(s.AllocBytes)/(1<<20))
		}
		ls.selfMS += float64(d-child[i]) / 1e6
	}
	return out
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
