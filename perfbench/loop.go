package main

import (
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// clientSpan is one traced round trip as the client saw it.
type clientSpan struct {
	id     int
	client int
	req    *request
	start  time.Duration // since the phase began
	dur    time.Duration
}

// phase is what one timed closed-loop phase observed.
type phase struct {
	attempted, failed, correct int
	lat                        []time.Duration // every completed round trip
	elapsed                    time.Duration
	firstErr                   error
	spans                      []clientSpan // traced phases only
}

func (p phase) throughput() float64 { return float64(p.correct) / p.elapsed.Seconds() }

// add pools another phase's counts, samples and time into p.
func (p *phase) add(q phase) {
	p.attempted += q.attempted
	p.failed += q.failed
	p.correct += q.correct
	p.lat = append(p.lat, q.lat...)
	p.elapsed += q.elapsed
	p.spans = append(p.spans, q.spans...)
	if p.firstErr == nil {
		p.firstErr = q.firstErr
	}
}

// runPhase drives the closed loop for dur: each client sends its next
// request as soon as the previous answer arrived and was checked. Clients
// continue their streams from in.cursor, so no phase replays what an
// earlier one left in the cache. A traced phase tags each request with an
// id the span wrapper records under.
func (in *instance) runPhase(tr traffic, answers []answer, dur time.Duration, traced bool) phase {
	var nextID atomic.Int64
	start := time.Now()
	if traced {
		in.spans.arm(maxSpans, start)
	}
	parts := make([]phase, len(tr.streams))
	var wg sync.WaitGroup
	for c := range tr.streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := &parts[c]
			reqs := tr.streams[c]
			for time.Since(start) < dur {
				q := &reqs[in.cursor[c]%len(reqs)]
				in.cursor[c]++
				id := -1
				if traced {
					if n := int(nextID.Add(1) - 1); n < maxSpans {
						id = n
					}
				}
				t0 := time.Now()
				status, body, err := in.conns[c].roundTrip(q, id)
				d := time.Since(t0)
				p.attempted++
				p.lat = append(p.lat, d)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("%s answered %d: %s", q.url, status, body)
				}
				if err == nil {
					err = check(q, &answers[q.slot], body)
				}
				if err != nil {
					p.failed++
					if p.firstErr == nil {
						p.firstErr = fmt.Errorf("%s: %w", q.url, err)
					}
				} else {
					p.correct++
				}
				if id >= 0 {
					p.spans = append(p.spans, clientSpan{id: id, client: c, req: q, start: t0.Sub(start), dur: d})
				}
			}
		}(c)
	}
	wg.Wait()
	var out phase
	for _, p := range parts {
		out.add(p)
	}
	out.elapsed = time.Since(start)
	if traced {
		in.spans.disarm(len(out.spans))
	}
	return out
}

// maxSpans bounds the spans one traced phase keeps in memory.
const maxSpans = 1 << 20

// traceHeader carries a traced request's id to the span wrapper.
const traceHeader = "X-Perfbench-Id"

// spanHandler wraps server.Handler(): while armed, it records a span around
// ServeHTTP under the request id the client sent.
type spanHandler struct {
	next     http.Handler
	armed    atomic.Bool
	epoch    time.Time
	start    []atomic.Int64 // ns since epoch, by request id
	dur      []atomic.Int64 // ns
	recorded atomic.Int64
}

func (h *spanHandler) arm(n int, epoch time.Time) {
	h.start = make([]atomic.Int64, n)
	h.dur = make([]atomic.Int64, n)
	h.recorded.Store(0)
	h.epoch = epoch
	h.armed.Store(true)
}

// disarm stops recording once the sent spans have all landed: a handler can
// still be storing its span after the client already read the answer.
func (h *spanHandler) disarm(sent int) {
	for deadline := time.Now().Add(2 * time.Second); h.recorded.Load() < int64(sent) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	h.armed.Store(false)
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.armed.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	id, err := strconv.Atoi(r.Header.Get(traceHeader))
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(t0)
	if err == nil && id >= 0 && id < len(h.dur) {
		h.start[id].Store(int64(t0.Sub(h.epoch)))
		h.dur[id].Store(int64(d))
		h.recorded.Add(1)
	}
}

// quantile returns the q-quantile (nearest rank) of xs, sorting it in place.
func quantile[T int64 | float64 | time.Duration](xs []T, q float64) T {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median[T int64 | float64 | time.Duration](xs []T) T { return quantile(xs, 0.5) }
