package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ccatscale/internal/schema"
	"ccatscale/internal/telemetry"
)

const (
	// serveClients is the closed loop's client count: one per core of
	// the 2-core host the benchmark is sized for.
	serveClients = 2
	// serveBoots is how many fresh boots set-up time is the median of.
	serveBoots = 9
	// serveRefs is how many served jobs are re-run in process to check
	// their results and to measure their events, allocations and heap.
	serveRefs   = 4
	bootTimeout = 30 * time.Second
	jobTimeout  = 120 * time.Second
	// userHZ is the kernel's fixed tick for /proc/<pid>/stat times.
	userHZ = 100
)

// ccserve is one booted ccserve process in its default fleet mode.
type ccserve struct {
	cmd     *exec.Cmd
	base    string
	out     string
	drained chan struct{} // closed once the process's stdout hits EOF
	client  *http.Client
}

// bootCCServe starts ccserve on a fresh store under dir and returns once
// /healthz reports ready, with the time that took.
func bootCCServe(bin, dir string) (*ccserve, time.Duration, error) {
	t0 := time.Now()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-out", dir)
	cmd.Stderr = os.Stderr
	// If the benchmark dies, ccserve is told to drain and exit too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting ccserve: %w", err)
	}
	s := &ccserve{cmd: cmd, out: dir, drained: make(chan struct{}), client: &http.Client{Timeout: jobTimeout}}
	addr := make(chan string, 1)
	go func() {
		defer close(s.drained)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "ccserve: listening on "); ok {
				a, _, _ := strings.Cut(rest, ",")
				addr <- a
			}
		}
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-s.drained:
		s.stop()
		return nil, 0, errors.New("ccserve exited before listening")
	case <-time.After(bootTimeout):
		s.stop()
		return nil, 0, errors.New("ccserve did not listen in time")
	}
	for {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		if time.Since(t0) > bootTimeout {
			s.stop()
			return nil, 0, errors.New("ccserve did not become ready in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains ccserve with SIGTERM and waits until it has exited, which
// it does only after its workers have.
func (s *ccserve) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.cmd.Process.Kill()
	}
	<-s.drained
	return s.cmd.Wait()
}

// cpu is the CPU time of ccserve and of every worker it has reaped.
func (s *ccserve) cpu() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime, stime, cutime
	// and cstime are fields 14–17 of the whole line.
	f := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
	if len(f) < 15 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	var ticks int64
	for _, v := range f[11:15] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / userHZ, nil
}

func (s *ccserve) getJSON(path string, v any) error {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// jobSample is one served job as the client saw it.
type jobSample struct {
	spec    schema.JobSpec
	key     string
	submit  time.Duration // POST round trip
	latency time.Duration // submit to terminal state
	wallMs  float64       // JobStatus.WallMs
	cached  bool          // served from the store without running
}

// runJob submits one job and waits for its terminal state on the job's
// event stream. A 429, a terminal state other than done, and a result
// served from the cache are failures.
func (s *ccserve) runJob(spec schema.JobSpec) (jobSample, error) {
	js := jobSample{spec: spec}
	body, err := json.Marshal(schema.BatchRequest{SchemaVersion: schema.Version, Jobs: []schema.JobSpec{spec}})
	if err != nil {
		return js, err
	}
	t0 := time.Now()
	resp, err := s.client.Post(s.base+"/v1/batches", "application/json", bytes.NewReader(body))
	if err != nil {
		return js, fmt.Errorf("submit: %w", err)
	}
	var br schema.BatchResponse
	err = json.NewDecoder(resp.Body).Decode(&br)
	resp.Body.Close()
	js.submit = time.Since(t0)
	if resp.StatusCode != http.StatusCreated {
		return js, fmt.Errorf("submit seed %d: %s", spec.Seed, resp.Status)
	}
	if err != nil || len(br.Jobs) != 1 {
		return js, fmt.Errorf("submit seed %d: bad response: %v", spec.Seed, err)
	}
	js.key = br.Jobs[0].Key

	// The stream ends when the job is terminal.
	ev, err := s.client.Get(s.base + "/v1/jobs/" + js.key + "/events")
	if err != nil {
		return js, fmt.Errorf("events: %w", err)
	}
	_, err = io.Copy(io.Discard, ev.Body)
	ev.Body.Close()
	if err != nil {
		return js, fmt.Errorf("events: %w", err)
	}
	var st schema.JobStatus
	for {
		if err := s.getJSON("/v1/jobs/"+js.key, &st); err != nil {
			return js, err
		}
		if schema.JobTerminal(st.State) {
			break
		}
		if time.Since(t0) > jobTimeout {
			return js, fmt.Errorf("job %s not terminal after %v", js.key, jobTimeout)
		}
		time.Sleep(time.Millisecond)
	}
	js.latency = time.Since(t0)
	js.wallMs, js.cached = st.WallMs, st.Cached
	switch {
	case st.State != schema.JobDone:
		return js, fmt.Errorf("job %s ended %s: %s", js.key, st.State, st.Error)
	case st.Cached:
		return js, fmt.Errorf("job %s was served from the cache", js.key)
	}
	return js, nil
}

// closedLoop runs serveClients clients, each submitting its next job
// only once its previous one is terminal, until budget has passed. Job
// seeds are distinct, so no job can be a cache hit. Each client names
// its jobs after itself: a worker leases its job's name, so two jobs of
// one name in flight at once would wait on each other's lease.
func (s *ccserve) closedLoop(seed uint64, budget time.Duration, r *result) (done []jobSample, cacheHits int, elapsed time.Duration) {
	var mu sync.Mutex
	var next uint64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		name := fmt.Sprintf("serve-c%d", c)
		go func() {
			defer wg.Done()
			for time.Since(start) < budget {
				mu.Lock()
				jobSeed := seed<<20 | next
				next++
				mu.Unlock()
				js, err := s.runJob(serveJob(name, jobSeed))
				mu.Lock()
				if js.cached {
					cacheHits++
				}
				if r.op(err) {
					done = append(done, js)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return done, cacheHits, time.Since(start)
}

// idle waits until no worker subprocess is alive, so every worker's CPU
// time has been reaped into ccserve's.
func (s *ccserve) idle() error {
	deadline := time.Now().Add(bootTimeout)
	for {
		var h schema.HealthResponse
		if err := s.getJSON("/healthz", &h); err != nil {
			return err
		}
		if len(h.Workers) == 0 && h.Running == 0 && h.Queued == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("ccserve workers did not go idle")
		}
		time.Sleep(time.Millisecond)
	}
}

// spawns reads the fleet's worker spawn counter from /metricsz.
func (s *ccserve) spawns() (int64, error) {
	var snap telemetry.Snapshot
	if err := s.getJSON("/metricsz", &snap); err != nil {
		return 0, err
	}
	return snap.Counters["fleet_spawns"], nil
}

// serveDir returns a fresh directory for one ccserve boot.
func serveDir(e *env, i int) (string, error) {
	dir := filepath.Join(e.work, fmt.Sprintf("ccserve-%d", i))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
