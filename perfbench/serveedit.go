package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"biocoder"
	"biocoder/internal/fleet"
	"biocoder/internal/obs"
	"biocoder/internal/serve"
)

// minRounds is the fewest rounds a run sends (210 requests), so p95_ms
// has more than ten samples beyond it.
const minRounds = 10

// serveEdit runs bfgate (fleet.Gateway) in front of two in-process bfd
// replicas (serve.Server), all on loopback HTTP, and drives them with the
// seeded request stream of stream.go from one closed-loop client. With two
// clients the same seed's throughput and p50_ms moved by 10-40% between
// runs on a 2-CPU machine, because which requests overlap, and whose
// garbage collections they pay for, changes from run to run; with one they
// stay within about 5-10%. The replicas still run at once: the gateway
// fans each batch's seeds out over both.
type serveEdit struct {
	exp      map[string]expectation
	backends []*httptest.Server
	gw       *fleet.Gateway
	front    *httptest.Server
	client   *http.Client
	exes     []string            // the base scripts' served executables
	bodies   map[[32]byte][]byte // first 200 compile body per source
}

func setupServeEdit(r *runner) (instance, error) {
	exp, err := loadExpected()
	if err != nil {
		return nil, err
	}
	e := &serveEdit{exp: exp, bodies: map[[32]byte][]byte{}}
	var urls []string
	for i := 0; i < 2; i++ {
		srv := serve.New(serve.Config{})
		ts := httptest.NewServer(traceReplica(r, srv.Handler()))
		e.backends = append(e.backends, ts)
		urls = append(urls, ts.URL)
	}
	// No background prober: readiness probes would add load and noise.
	if e.gw, err = fleet.New(fleet.Config{Replicas: urls, HealthEvery: -1}); err != nil {
		e.close()
		return nil, err
	}
	e.front = httptest.NewServer(traceGateway(r, e.gw.Handler()))
	e.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}

	// Prime: every base script compiled once through the gateway, so the
	// stream's repeats are cache hits and its edits find a warm memo.
	for _, s := range r.scripts {
		status, body, err := e.post("/v1/compile", "setup", map[string]any{"source": s.source})
		if err != nil || status != http.StatusOK {
			e.close()
			return nil, fmt.Errorf("%s: priming compile: status %d: %v %.200s", s.file, status, err, body)
		}
		var cr serve.CompileResponse
		if err := json.Unmarshal(body, &cr); err != nil {
			e.close()
			return nil, fmt.Errorf("%s: priming compile: %w", s.file, err)
		}
		e.bodies[sha256.Sum256([]byte(s.source))] = body
		e.exes = append(e.exes, cr.Executable)
	}
	return e, nil
}

func (e *serveEdit) close() {
	if e.front != nil {
		e.front.Close()
	}
	if e.gw != nil {
		e.gw.Close()
	}
	for _, b := range e.backends {
		b.Close()
	}
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
}

// traceGateway wraps the gateway's public handler with a "fleet" span,
// child of the client's "request" span of the same request ID. Requests
// outside the measured loop (priming, counter reads) are not traced.
func traceGateway(r *runner, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := req.Header.Get(serve.HeaderRequestID)
		parent := r.tr.openSpan(id, "request")
		if parent < 0 {
			h.ServeHTTP(w, req)
			return
		}
		sp := r.tr.begin("fleet", id, parent)
		h.ServeHTTP(w, req)
		r.tr.end(sp)
	})
}

// traceReplica wraps a replica's public handler with a "serve" span,
// child of the gateway's span of the same request ID.
func traceReplica(r *runner, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := req.Header.Get(serve.HeaderRequestID)
		parent := r.tr.openSpan(id, "fleet")
		if parent < 0 {
			h.ServeHTTP(w, req)
			return
		}
		sp := r.tr.begin("serve", id, parent)
		h.ServeHTTP(w, req)
		r.tr.end(sp)
	})
}

func (e *serveEdit) post(path, id string, body any) (int, []byte, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequest(http.MethodPost, e.front.URL+path, bytes.NewReader(data))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serve.HeaderRequestID, id)
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// reqResult is one request's latency and check outcome, and an edit's
// compile body until it is checked after the run.
type reqResult struct {
	rq   request
	d    time.Duration
	fail string
	body []byte
}

func (e *serveEdit) measure(r *runner, o *outcome) {
	gen, err := newGenerator(r.seed, r.scripts)
	if err != nil {
		o.attempted++
		o.fail("request generator: %v", err)
		return
	}
	before, err := e.counters()
	if err != nil {
		o.attempted++
		o.fail("reading counters: %v", err)
		return
	}

	var results []reqResult
	rounds := 0
	start := time.Now()
	// Past minRounds a new round starts only while time remains, so the
	// run always ends on a round boundary.
	for ; rounds < minRounds || time.Since(start) < r.seconds; rounds++ {
		t0 := time.Now()
		for _, rq := range gen.round() {
			results = append(results, e.do(r, rq, fmt.Sprintf("req%d", len(results))))
		}
		o.passes = append(o.passes, time.Since(t0))
	}
	o.wall = time.Since(start)
	o.endTimed()

	// Untimed: every edit's served executable must equal a cold
	// biocoder.Compile of the edited source. The replicas compiled it
	// through the block memo, σ-translating the blocks the edit left alone.
	for i := range results {
		if res := &results[i]; res.rq.kind == kindEdit && res.fail == "" {
			res.fail = checkAgainstCompile(res.rq.source, res.body)
		}
		results[i].body = nil
	}

	kinds := map[reqKind]int{}
	for _, res := range results {
		o.attempted++
		kinds[res.rq.kind]++
		if res.fail != "" {
			o.fail("%s %s: %s", res.rq.kind, r.scripts[res.rq.script].file, res.fail)
			continue
		}
		o.ops = append(o.ops, opSample{res.rq.script, res.d})
	}

	after, err := e.counters()
	if err != nil {
		o.fail("reading counters: %v", err)
	}
	for name, v := range layerCounters(before, after) {
		o.counter(name, v)
	}

	// The served base executables are the right ones: they simulate to
	// the recorded cycle counts.
	for i, s := range r.scripts {
		o.exeBytes += len(e.exes[i])
		prog, err := decode(&runner{}, []byte(e.exes[i]), "", -1)
		if err != nil {
			o.fail("%s: decoding served executable: %v", s.file, err)
			continue
		}
		cycles, _ := simulate(&runner{}, o, s, prog, e.exp[s.file], "", -1)
		o.cycles += cycles
	}

	lat := make([]float64, len(o.ops))
	for i, op := range o.ops {
		lat[i] = ms(op.d)
	}
	o.extra = append(o.extra,
		extraLine{"rounds", "count", float64(rounds), fmt.Sprintf("%d repeat, %d edit, %d batch requests in total", kinds[kindRepeat], kinds[kindEdit], kinds[kindBatch])},
		extraLine{"p99_ms", "ms", quantile(lat, 0.99), "99th-percentile request latency"},
	)
}

// do sends one request and checks its response.
func (e *serveEdit) do(r *runner, rq request, id string) reqResult {
	var path string
	body := map[string]any{"source": rq.source}
	if rq.kind == kindBatch {
		path = "/v1/simulate"
		body["seeds"] = rq.seeds
		ranges := map[string][2]float64{}
		for v, rg := range r.scripts[rq.script].assay.Ranges {
			ranges[v] = [2]float64{rg.Min, rg.Max}
		}
		body["ranges"] = ranges
	} else {
		path = "/v1/compile"
	}
	sp := r.tr.begin("request", id, -1)
	start := time.Now()
	status, out, err := e.post(path, id, body)
	res := reqResult{rq: rq, d: time.Since(start)}
	r.tr.end(sp)
	switch {
	case err != nil:
		res.fail = err.Error()
	case status != http.StatusOK:
		res.fail = fmt.Sprintf("status %d: %.200s", status, out)
	case rq.kind == kindBatch:
		res.fail = checkBatch(out, rq.seeds)
	default:
		res.fail = e.checkCompile(rq.source, out)
		if rq.kind == kindEdit {
			res.body = out
		}
	}
	return res
}

// checkCompile holds every 200 compile body for a source byte-identical
// to the first one.
func (e *serveEdit) checkCompile(source string, body []byte) string {
	key := sha256.Sum256([]byte(source))
	first, ok := e.bodies[key]
	if !ok {
		e.bodies[key] = body
		return ""
	}
	if !bytes.Equal(first, body) {
		return "compile body differs from the first body for the same source"
	}
	return ""
}

// checkBatch holds a merged batch stream to exactly one result per seed,
// each collecting at least one droplet, and no error records.
func checkBatch(body []byte, seeds []int64) string {
	results := map[int64]int{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		var rec struct {
			Type      string `json:"type"`
			Seed      int64  `json:"seed"`
			Dispensed int    `json:"dispensed"`
			Collected int    `json:"collected"`
			Error     string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return fmt.Sprintf("bad NDJSON line: %v", err)
		}
		switch rec.Type {
		case "error":
			return fmt.Sprintf("seed %d: %s", rec.Seed, rec.Error)
		case "result":
			results[rec.Seed]++
			if rec.Collected < 1 || rec.Dispensed < 1 {
				return fmt.Sprintf("seed %d: dispensed %d, collected %d droplets", rec.Seed, rec.Dispensed, rec.Collected)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err.Error()
	}
	for _, s := range seeds {
		if results[s] != 1 {
			return fmt.Sprintf("seed %d: %d results, want exactly 1", s, results[s])
		}
	}
	if len(results) != len(seeds) {
		return fmt.Sprintf("%d seeds answered, %d sent", len(results), len(seeds))
	}
	return ""
}

// checkAgainstCompile holds a compile body's executable byte-identical to
// what biocoder.Compile (default options) encodes for the same source.
func checkAgainstCompile(source string, body []byte) string {
	var cr serve.CompileResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		return fmt.Sprintf("compile body: %v", err)
	}
	bs, err := biocoder.ParseScript(source)
	if err != nil {
		return fmt.Sprintf("reference parse: %v", err)
	}
	prog, err := biocoder.Compile(bs, biocoder.Options{})
	if err != nil {
		return fmt.Sprintf("reference compile: %v", err)
	}
	var want bytes.Buffer
	if err := prog.Save(&want); err != nil {
		return fmt.Sprintf("reference encode: %v", err)
	}
	if cr.Executable != want.String() {
		return fmt.Sprintf("served executable (%d bytes) differs from biocoder.Compile's (%d bytes)", len(cr.Executable), want.Len())
	}
	return ""
}

// fleetCounters are the counters the program publishes: /v1/stats of
// the gateway and of each replica, and each replica's /metrics histograms.
type fleetCounters struct {
	gw           fleet.StatsSnapshot
	replicas     []serve.StatsSnapshot
	compileSum   float64 // biocoder_compile_seconds_sum over replicas
	compileCount float64
	verifySum    float64 // biocoder_verify_pass_seconds_sum over replicas and passes
}

func (e *serveEdit) counters() (*fleetCounters, error) {
	c := &fleetCounters{}
	if err := e.getJSON(e.front.URL+"/v1/stats", &c.gw); err != nil {
		return nil, err
	}
	for _, b := range e.backends {
		var s serve.StatsSnapshot
		if err := e.getJSON(b.URL+"/v1/stats", &s); err != nil {
			return nil, err
		}
		c.replicas = append(c.replicas, s)
		resp, err := e.client.Get(b.URL + "/metrics")
		if err != nil {
			return nil, err
		}
		expo, err := obs.ParseExposition(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		for _, s := range expo.Samples {
			switch s.Name {
			case "biocoder_compile_seconds_sum":
				c.compileSum += s.Value
			case "biocoder_compile_seconds_count":
				c.compileCount += s.Value
			case "biocoder_verify_pass_seconds_sum":
				c.verifySum += s.Value
			}
		}
	}
	return c, nil
}

func (e *serveEdit) getJSON(url string, v any) error {
	resp, err := e.client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// layerCounters turns two counter snapshots into the serve and fleet
// per-layer metrics of the measured phase.
func layerCounters(a, b *fleetCounters) map[string]float64 {
	var compiles, hits, misses, memoHits, memoMisses, coalesced float64
	for i := range b.replicas {
		x, y := a.replicas[i], b.replicas[i]
		compiles += float64(y.Compiles - x.Compiles)
		hits += float64(y.CacheHits - x.CacheHits)
		misses += float64(y.CacheMisses - x.CacheMisses)
		memoHits += float64(y.MemoHits - x.MemoHits)
		memoMisses += float64(y.MemoMisses - x.MemoMisses)
		coalesced += float64(y.Coalesced - x.Coalesced)
	}
	ratio := func(n, d float64) float64 {
		if d == 0 {
			return 0
		}
		return n / d
	}
	return map[string]float64{
		"serve.compiles":        compiles,
		"serve.compile_ms":      1000 * ratio(b.compileSum-a.compileSum, b.compileCount-a.compileCount),
		"serve.verify_ms":       1000 * ratio(b.verifySum-a.verifySum, compiles),
		"serve.cache_hit_ratio": ratio(hits, hits+misses),
		"serve.memo_hit_ratio":  ratio(memoHits, memoHits+memoMisses),
		"serve.coalesced":       coalesced,
		"fleet.retries":         float64(b.gw.Retries - a.gw.Retries),
		"fleet.shed":            float64(b.gw.Shed - a.gw.Shed),
	}
}
