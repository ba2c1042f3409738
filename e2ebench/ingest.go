package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/archive"
	"repro/internal/tsstore"

	pathload "repro"
)

// The ingest workload: no simulator, a seeded synthetic sample stream
// for ingestPaths paths split over ingestAgents agents, each agent
// retaining its paths in an archive-backed store, plus a federation
// merging every agent's contributions.
const (
	ingestPaths    = 2000
	ingestAgents   = 2
	ingestCapacity = 64 // ring points per path
	// ingestHistory rounds are written before set-up, so every ring is
	// full and per-round cost is steady from the first measured round,
	// and so set-up reopens (recovers) a real archive.
	ingestHistory = ingestCapacity
	ingestSeal    = 1 << 20
	ingestSetups  = 3
	// scrapeSlot is the open-loop scraper's cadence: one scrape is due
	// every slot, alternating between the agent store and the
	// federation, so each target is scraped every two slots. A
	// Prometheus-style 15 s scrape interval would scrape each target
	// once per monitor round, but a round here is written in about
	// 40 ms, and two scrapes per round would keep one CPU rendering.
	// The slot is instead sized so the slower render (the federation,
	// p90 about 125 ms on a 2-CPU VM) ends inside it with margin: a
	// scrape then does not queue behind the one before, and each
	// target's latency is its own scrape.
	scrapeSlot    = 200 * time.Millisecond
	ingestRenders = 5 // direct renders timed after a traced phase
	// observeTimed: one Observe in observeTimed is timed for the
	// estimate_ms figures, keeping the benchmark's own timing and memory
	// small next to the store's.
	observeTimed = 8
)

// ingestChunkRounds rounds (about 1 s) make one chunk; the run's last
// chunk may hold fewer. A scrape's buffers are live at about a third
// of chunk ends, so peak_heap_mb needs many chunk ends to catch one
// steadily: at 100 rounds a chunk, some runs caught none and read
// 30% lower. A variable so tests can shorten it.
var ingestChunkRounds = 25

func ingestPath(i int) string  { return fmt.Sprintf("p-%04d", i) }
func ingestAgent(a int) string { return fmt.Sprintf("agent-%d", a) }

// ingestSample is path i's round r sample, a pure function of the seed.
func ingestSample(seed int64, i, r int) pathload.Sample {
	base := 2e6 + unit(derive(seed, int64(i)))*48e6
	z := derive(seed, int64(r)*ingestPaths+int64(i)+1<<40)
	mid := base * (0.8 + 0.4*unit(z))
	width := mid * 0.3 * unit(z>>11)
	elapsed := 5*time.Second + time.Duration(unit(z>>22)*float64(10*time.Second))
	at := time.Duration(r) * 15 * time.Second
	return pathload.Sample{
		Path:  ingestPath(i),
		Round: r,
		At:    at,
		Wall:  time.Unix(1_700_000_000, 0).Add(at + elapsed),
		Result: pathload.Result{
			Lo: mid - width/2, Hi: mid + width/2,
			Elapsed: elapsed,
			Bits:    1e6 + unit(z>>33)*4e6,
		},
	}
}

// unit maps a seed to [0, 1).
func unit(z int64) float64 { return float64(uint64(z)>>11) / (1 << 53) }

// agentSet is one set-up of the ingest system: the agents' recovered
// stores, the federation and the two HTTP endpoints.
type agentSet struct {
	stores   []*tsstore.Store
	backends []*archive.StoreBackend
	fed      *tsstore.Federation
	servers  []*server
}

func (s *agentSet) close() error {
	var errs []error
	for _, srv := range s.servers {
		errs = append(errs, srv.close())
	}
	for _, st := range s.stores {
		errs = append(errs, st.Close())
	}
	return errors.Join(errs...)
}

// server serves one handler on a loopback port until close, which
// waits for it to stop.
type server struct {
	srv  *http.Server
	url  string
	done chan error
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String() + "/metrics", done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

func (s *server) close() error {
	err := s.srv.Close()
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// contribution is an agent's push for one path.
func contribution(st *tsstore.Store, path string, seq uint64) tsstore.Contribution {
	total, errs := st.Totals(path)
	return tsstore.Contribution{Seq: seq, Total: total, Errors: errs, Points: st.Snapshot(path), Digest: st.DigestSnapshot(path)}
}

// openAgents recovers every agent's store from its archive, pushes the
// recovered state into a fresh federation and starts the endpoints.
func openAgents(dirs []string, recoverMs *[]float64, seq uint64) (*agentSet, error) {
	s := &agentSet{fed: tsstore.NewFederation(tsstore.Config{Capacity: ingestCapacity})}
	for _, dir := range dirs {
		t0 := time.Now()
		st, b, _, err := archive.OpenStore(dir, archive.Options{SealBytes: ingestSeal}, tsstore.Config{Capacity: ingestCapacity})
		if err != nil {
			s.close()
			return nil, err
		}
		*recoverMs = append(*recoverMs, ms(time.Since(t0)))
		s.stores = append(s.stores, st)
		s.backends = append(s.backends, b)
	}
	for i := 0; i < ingestPaths; i++ {
		a := i % ingestAgents
		s.fed.Push(ingestAgent(a), ingestPath(i), contribution(s.stores[a], ingestPath(i), seq))
	}
	for _, h := range []http.Handler{s.stores[0].Handler(), s.fed.Handler()} {
		srv, err := serve(h)
		if err != nil {
			s.close()
			return nil, err
		}
		s.servers = append(s.servers, srv)
	}
	return s, nil
}

// scrapeResult is one scrape: its latency from when it was due, how
// late it started, and whether it passed its checks.
type scrapeResult struct {
	target  int // 0 agent store, 1 federation
	latMs   float64
	lateMs  float64
	failed  bool
	problem string
}

// scraper runs the open-loop scrape schedule until stop closes, then
// returns every scrape it made.
func scraper(set *agentSet, tr *tracer, start time.Time, stop <-chan struct{}) []scrapeResult {
	client := &http.Client{Transport: &http.Transport{}, Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	want := [][]string{nil, nil}
	for i := 0; i < ingestPaths; i++ {
		if i%ingestAgents == 0 {
			want[0] = append(want[0], ingestPath(i))
		}
		want[1] = append(want[1], ingestPath(i))
	}
	names := []string{"http.scrape.agent", "http.scrape.fed"}
	var out []scrapeResult
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * scrapeSlot)
		select {
		case <-stop:
			return out
		case <-time.After(time.Until(due)):
		}
		target := k % 2
		r := scrapeResult{target: target, lateMs: ms(time.Since(due))}
		id := tr.begin(names[target], int64(k), -1)
		body, err := get(client, set.servers[target].url)
		tr.end(id)
		r.latMs = ms(time.Since(due))
		if err != nil {
			r.failed, r.problem = true, err.Error()
		} else if missing := missingPath(body, want[target]); missing != "" {
			r.failed, r.problem = true, fmt.Sprintf("scrape of %s does not name path %s", names[target], missing)
		}
		out = append(out, r)
	}
}

func get(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, nil
}

// missingPath returns the first wanted path the exposition carries no
// sample counter for, or "".
func missingPath(body []byte, want []string) string {
	prefix := []byte(`pathload_availbw_samples_total{path="`)
	have := map[string]bool{}
	for _, line := range bytes.Split(body, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, prefix); ok {
			if name, _, ok := bytes.Cut(rest, []byte(`"`)); ok {
				have[string(name)] = true
			}
		}
	}
	for _, p := range want {
		if !have[p] {
			return p
		}
	}
	return ""
}

// dirBytes sums the sizes of the files under dirs.
func dirBytes(dirs []string) int64 {
	var n int64
	for _, d := range dirs {
		filepath.WalkDir(d, func(_ string, de os.DirEntry, err error) error {
			if err == nil && !de.IsDir() {
				if info, ierr := de.Info(); ierr == nil {
					n += info.Size()
				}
			}
			return nil
		})
	}
	return n
}

// runIngest seeds each agent's archive with ingestHistory rounds, sets
// the system up ingestSetups times (recovery included), then writes
// rounds closed-loop while the scraper scrapes open-loop, for d.
func runIngest(e *env, tr *tracer, d time.Duration) (*phase, error) {
	t := newPhase(tr)
	proc0 := readProc()
	root := filepath.Join(e.dir, fmt.Sprintf("ingest-%t", tr != nil))
	var dirs []string
	for a := 0; a < ingestAgents; a++ {
		dirs = append(dirs, filepath.Join(root, ingestAgent(a)))
	}
	if err := seedArchives(e.seed, dirs); err != nil {
		return nil, err
	}

	var recoverMs []float64
	var set *agentSet
	for i := 0; i < ingestSetups; i++ {
		if set != nil {
			if err := set.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if set, err = openAgents(dirs, &recoverMs, ingestHistory); err != nil {
			return nil, err
		}
		t.setupS = append(t.setupS, time.Since(t0).Seconds())
	}
	segs0 := 0
	for _, b := range set.backends {
		segs0 += len(b.Archive().Segments())
	}
	bytes0 := dirBytes(dirs)

	stop := make(chan struct{})
	var scrapes []scrapeResult
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		scrapes = scraper(set, tr, start, stop)
	}()
	pushes, applied := 0, 0
	chunkStart := start
	rounds := 0
	for done := false; !done; {
		r := ingestHistory + rounds
		for i := 0; i < ingestPaths; i++ {
			s := ingestSample(e.seed, i, r)
			st := set.stores[i%ingestAgents]
			id := tr.begin("tsstore.Observe", int64(r)*ingestPaths+int64(i), -1)
			if i%observeTimed == 0 {
				t0 := time.Now()
				st.Observe(s)
				t.latMs = append(t.latMs, ms(time.Since(t0)))
			} else {
				st.Observe(s)
			}
			tr.end(id)
		}
		for i := 0; i < ingestPaths; i++ {
			a := i % ingestAgents
			op := int64(r)*ingestPaths + int64(i)
			id := tr.begin("tsstore.contribution", op, -1)
			c := contribution(set.stores[a], ingestPath(i), uint64(r+1))
			tr.end(id)
			id = tr.begin("tsstore.federation.Push", op, -1)
			ok := set.fed.Push(ingestAgent(a), ingestPath(i), c)
			tr.end(id)
			pushes++
			if ok {
				applied++
			}
		}
		t.estimates += ingestPaths
		rounds++
		// The limit is on measured time, the chunks' walls, which leave
		// out the full GC after each chunk; the last chunk closes once.
		wall := time.Since(chunkStart)
		done = t.measured+wall >= d
		if done || rounds%ingestChunkRounds == 0 {
			t.closeChunk(wall, liveHeapMB(set))
			chunkStart = time.Now()
		}
	}
	close(stop)
	wg.Wait()

	// Layer figures read while the system is still open.
	segs := 0
	for _, b := range set.backends {
		segs += len(b.Archive().Segments())
	}
	var backendErrs uint64
	for _, st := range set.stores {
		n, _ := st.BackendErrs()
		backendErrs += n
	}
	var renderMs, snapMs []float64
	renderKB := 0.0
	if tr != nil {
		for i := 0; i < ingestRenders; i++ {
			var buf bytes.Buffer
			t0 := time.Now()
			if err := set.stores[0].WritePrometheus(&buf); err != nil {
				return nil, err
			}
			renderMs = append(renderMs, ms(time.Since(t0)))
			renderKB = float64(buf.Len()) / 1024
			t0 = time.Now()
			set.fed.Snapshot()
			snapMs = append(snapMs, ms(time.Since(t0)))
		}
	}
	if err := set.close(); err != nil {
		return nil, err
	}
	walBytes := dirBytes(dirs) - bytes0

	// Output checks: every scrape served and complete, every archive
	// verifies, and the reopened stores hold exactly what was written.
	var lat [2][]float64
	var late []float64
	for _, s := range scrapes {
		t.attempted++
		lat[s.target] = append(lat[s.target], s.latMs)
		late = append(late, s.lateMs)
		if s.failed {
			t.failed++
			t.check(false, "%s", s.problem)
		}
	}
	t.attempted += t.estimates
	t.failed += int(backendErrs)
	t.check(backendErrs == 0, "%d archive appends failed", backendErrs)
	t.check(applied == pushes, "federation applied %d of %d pushes with increasing Seq", applied, pushes)
	var verifyMs []float64
	for _, dir := range dirs {
		t0 := time.Now()
		rep, err := archive.Verify(dir)
		verifyMs = append(verifyMs, ms(time.Since(t0)))
		if err != nil {
			return nil, err
		}
		t.check(rep.OK(), "archive %s does not verify: %v", dir, rep.Problems)
	}
	for a, dir := range dirs {
		st, b, _, err := archive.OpenStore(dir, archive.Options{}, tsstore.Config{Capacity: ingestCapacity})
		if err != nil {
			return nil, err
		}
		paths := st.Paths()
		t.check(len(paths) == ingestPaths/ingestAgents, "%s reopened with %d paths, want %d", ingestAgent(a), len(paths), ingestPaths/ingestAgents)
		for _, p := range paths {
			total, errs := st.Totals(p)
			t.check(total == uint64(ingestHistory+rounds) && errs == 0,
				"%s: reopened totals %d samples (%d errors), want %d written", p, total, errs, ingestHistory+rounds)
		}
		if err := b.Close(); err != nil {
			return nil, err
		}
	}

	fmt.Printf("scraper: %d scrapes due every %v, started late by p50 %.2f ms, p90 %.2f ms\n",
		len(scrapes), scrapeSlot, quantile(late, 0.5), quantile(late, 0.9))
	t.detail["failed_share"] = ratio(float64(t.failed), float64(t.attempted))
	t.detail["ingest_samples_per_s"] = t.chunkRate()
	t.detail["scrape_ms_p50"] = quantile(lat[0], 0.5)
	t.detail["scrape_ms_p90"] = quantile(lat[0], 0.9)
	t.detail["fed_scrape_ms_p50"] = quantile(lat[1], 0.5)
	t.detail["fed_scrape_ms_p90"] = quantile(lat[1], 0.9)
	t.layer["tsstore.backend_errs"] = float64(backendErrs)
	t.layer["tsstore.federation.applied_share"] = ratio(float64(applied), float64(pushes))
	t.layer["archive.recover_ms"] = quantile(recoverMs, 0.5)
	t.layer["archive.wal_bytes_per_sample"] = ratio(float64(walBytes), float64(t.estimates))
	t.layer["archive.segments_sealed"] = float64(segs - segs0)
	t.layer["archive.verify_ms"] = quantile(verifyMs, 0.5)
	t.procFigures(proc0)
	if tr != nil {
		push := tr.durations("tsstore.federation.Push", time.Microsecond)
		observeUs := tr.durations("tsstore.Observe", time.Microsecond)
		t.layer["tsstore.observe_us_p50"] = quantile(observeUs, 0.5)
		t.layer["tsstore.observe_us_p90"] = quantile(observeUs, 0.9)
		t.layer["tsstore.render_ms_p50"] = quantile(renderMs, 0.5)
		t.layer["tsstore.render_kb"] = renderKB
		t.layer["tsstore.federation.push_us_p50"] = quantile(push, 0.5)
		t.layer["tsstore.federation.push_us_p90"] = quantile(push, 0.9)
		t.layer["tsstore.federation.snapshot_ms_p50"] = quantile(snapMs, 0.5)
	}
	if err := os.RemoveAll(root); err != nil {
		return nil, err
	}
	return t, nil
}

// seedArchives writes ingestHistory rounds of every agent's paths into
// fresh archives and closes them.
func seedArchives(seed int64, dirs []string) error {
	for a, dir := range dirs {
		st, _, _, err := archive.OpenStore(dir, archive.Options{SealBytes: ingestSeal}, tsstore.Config{Capacity: ingestCapacity})
		if err != nil {
			return err
		}
		for r := 0; r < ingestHistory; r++ {
			for i := a; i < ingestPaths; i += ingestAgents {
				st.Observe(ingestSample(seed, i, r))
			}
		}
		if n, last := st.BackendErrs(); n > 0 {
			st.Close()
			return fmt.Errorf("seeding %s: %d appends failed (last: %v)", dir, n, last)
		}
		if err := st.Close(); err != nil {
			return err
		}
	}
	return nil
}
