package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"
)

// tracer records one span around each call the benchmark makes into a
// layer of the program. It never reaches inside the program: a span is
// opened before the call and closed after it. Spans stay in memory and are
// written out (Chrome trace-event JSON) when the run ends. A nil *tracer
// records nothing, which is how the untraced runs call the same code.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	// mem measures heap allocation per span with runtime.ReadMemStats.
	// It is only meaningful where one goroutine does all the work.
	mem bool
	// open maps (request ID, span name) to the open span, so a span opened
	// for the same request on another goroutine (gateway → replica) can
	// find its parent.
	open map[[2]string]int
}

type span struct {
	Name   string
	ID     string // shared by every span of one request or corpus pass
	Parent int    // index of the parent span; -1 for a root
	Start  time.Duration
	End    time.Duration
	// Allocs and AllocBytes are the heap allocations made while the span
	// was open (only when the tracer measures memory).
	Allocs     uint64
	AllocBytes uint64
}

func newTracer(mem bool) *tracer {
	return &tracer{epoch: time.Now(), mem: mem, open: map[[2]string]int{}}
}

// begin opens a span under parent (-1 for a root) and returns its handle.
func (t *tracer) begin(name, id string, parent int) int {
	if t == nil {
		return -1
	}
	var ms runtime.MemStats
	if t.mem {
		runtime.ReadMemStats(&ms)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, ID: id, Parent: parent,
		Start:      time.Since(t.epoch),
		Allocs:     ms.Mallocs,
		AllocBytes: ms.TotalAlloc,
	})
	i := len(t.spans) - 1
	if id != "" {
		t.open[[2]string{id, name}] = i
	}
	return i
}

// openSpan returns the open span of the given request ID and name, or -1.
func (t *tracer) openSpan(id, name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if i, ok := t.open[[2]string{id, name}]; ok {
		return i
	}
	return -1
}

// end closes the span opened by begin.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	var ms runtime.MemStats
	if t.mem {
		runtime.ReadMemStats(&ms)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[i]
	s.End = time.Since(t.epoch)
	if t.mem {
		s.Allocs = ms.Mallocs - s.Allocs
		s.AllocBytes = ms.TotalAlloc - s.AllocBytes
	} else {
		s.Allocs, s.AllocBytes = 0, 0
	}
	if k := [2]string{s.ID, s.Name}; t.open[k] == i {
		delete(t.open, k)
	}
}

// layerStats aggregates every span of one name.
type layerStats struct {
	Calls      int
	Total      time.Duration
	Self       time.Duration
	Allocs     uint64
	AllocBytes uint64
}

func (l layerStats) meanMS() float64     { return meanOf(ms(l.Total), l.Calls) }
func (l layerStats) meanSelfMS() float64 { return meanOf(ms(l.Self), l.Calls) }
func (l layerStats) meanAllocs() float64 { return meanOf(float64(l.Allocs), l.Calls) }
func (l layerStats) meanAllocMB() float64 {
	return meanOf(float64(l.AllocBytes)/(1<<20), l.Calls)
}

func meanOf(total float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// aggregate sums spans by name. A span's self time is its duration minus
// the part of it that its child spans cover (children may overlap, as the
// replica requests of one batched simulate do).
func (t *tracer) aggregate() map[string]layerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]layerStats{}
	for i, s := range t.spans {
		dur := s.End - s.Start
		l := out[s.Name]
		l.Calls++
		l.Total += dur
		l.Self += dur - covered(s, t.spans, children[i])
		l.Allocs += s.Allocs
		l.AllocBytes += s.AllocBytes
		out[s.Name] = l
	}
	return out
}

// covered returns how much of parent's interval the union of the child
// intervals covers.
func covered(parent span, spans []span, kids []int) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var sum, end time.Duration
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			sum += v.hi - end
			end = v.hi
		}
	}
	return sum
}

// writeChrome writes the spans as Chrome trace events (load the file in
// Perfetto or chrome://tracing). Each ID becomes its own track.
func (t *tracer) writeChrome(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	tids := map[string]int{}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		tid, ok := tids[s.ID]
		if !ok {
			tid = len(tids) + 1
			tids[s.ID] = tid
		}
		args := map[string]any{"id": s.ID, "span": i, "parent": s.Parent}
		if t.mem {
			args["allocs"] = s.Allocs
			args["allocBytes"] = s.AllocBytes
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: tid,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: args,
		})
	}
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events}); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
