package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"compact/internal/core"
	"compact/internal/logic"
)

// The async job API
//
// POST /v1/jobs accepts the same body as /v1/synthesize but returns
// immediately with 202 and a job id; the solve runs on the same worker
// pool (deduplicated through the same singleflight group, so a job and a
// synchronous request for the same key share one solve). GET
// /v1/jobs/{id} polls the lifecycle
//
//	queued -> running -> done | failed
//
// with live progress (verified-repair attempts, completed tiles) fed by
// core.WithProgress callbacks. DELETE /v1/jobs/{id} cancels via the
// job's derived context: a queued job is released before it ever takes a
// worker slot, a running one has its solve canceled (which any
// synchronous waiters sharing the flight observe as the "canceled"
// code). GET /v1/jobs/{id}/result serves the completed body from the
// cache tiers with the usual X-Compactd-Cache disposition.
//
// When the server has a store directory, job records persist as
// <storeDir>/jobs/<id>.json (atomic tmp+rename, rewritten on every
// transition). On restart terminal jobs are recovered as-is — a done
// job's result is typically still on the disk tier — and jobs that were
// queued or running resurface as failed with the "interrupted" code, so
// a submitted job never silently vanishes.

// Job lifecycle states.
const (
	jobQueued  = "queued"
	jobRunning = "running"
	jobDone    = "done"
	jobFailed  = "failed"
)

// jobRecordVersion is the persisted record format version.
const jobRecordVersion = 1

// job is one asynchronous solve. The progress atomics are written by the
// synthesis goroutine and read by status polls; mu guards the lifecycle
// fields.
type job struct {
	id      string
	key     string
	created time.Time
	cancel  context.CancelFunc // nil for jobs recovered from disk

	repairAttempts atomic.Int64
	tilesDone      atomic.Int64

	mu      sync.Mutex
	status  string
	code    string // envelope code when failed
	message string // human-readable failure message
}

// terminal reports whether the job has reached done or failed.
func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status == jobDone || j.status == jobFailed
}

// jobRecord is the on-disk snapshot of a job (v1).
type jobRecord struct {
	V              int    `json:"v"`
	ID             string `json:"id"`
	Status         string `json:"status"`
	Key            string `json:"key"`
	CreatedUnixMS  int64  `json:"created_unix_ms"`
	Code           string `json:"code,omitempty"`
	Message        string `json:"message,omitempty"`
	RepairAttempts int64  `json:"repair_attempts,omitempty"`
	TilesDone      int64  `json:"tiles_done,omitempty"`
}

// snapshot captures the job's current state as a persistable record.
func (j *job) snapshot() jobRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobRecord{
		V:              jobRecordVersion,
		ID:             j.id,
		Status:         j.status,
		Key:            j.key,
		CreatedUnixMS:  j.created.UnixMilli(),
		Code:           j.code,
		Message:        j.message,
		RepairAttempts: j.repairAttempts.Load(),
		TilesDone:      j.tilesDone.Load(),
	}
}

// jobTable is the bounded registry of jobs, counting both live and
// terminal entries so finished jobs stay pollable until evicted.
type jobTable struct {
	max     int
	dir     string // "" = records are not persisted
	metrics *metrics

	mu    sync.Mutex
	jobs  map[string]*job
	order []string // insertion order (oldest first), for eviction
}

// newJobTable builds the table and, when dir-backed, recovers records
// from <storeDir>/jobs: terminal jobs load as-is, interrupted ones are
// rewritten as failed. Returns an error only when the directory cannot
// be created or scanned.
func newJobTable(max int, storeDir string, m *metrics) (*jobTable, error) {
	t := &jobTable{max: max, metrics: m, jobs: make(map[string]*job)}
	if storeDir == "" {
		return t, nil
	}
	t.dir = filepath.Join(storeDir, "jobs")
	if err := os.MkdirAll(t.dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(t.dir)
	if err != nil {
		return nil, err
	}
	var recovered []*job
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		if strings.HasPrefix(name, "tmp-") {
			_ = os.Remove(filepath.Join(t.dir, name)) // crash debris
			continue
		}
		id := strings.TrimSuffix(name, ".json")
		j, ok := t.loadRecord(id)
		if !ok {
			continue
		}
		recovered = append(recovered, j)
	}
	sort.Slice(recovered, func(a, b int) bool {
		return recovered[a].created.Before(recovered[b].created)
	})
	for _, j := range recovered {
		t.jobs[j.id] = j
		t.order = append(t.order, j.id)
	}
	t.evictLocked() // all recovered jobs are terminal, so this always fits
	return t, nil
}

// loadRecord reads and validates one persisted record, rewriting
// interrupted (queued/running) jobs as failed. Undecodable or
// foreign-looking files are removed rather than trusted.
func (t *jobTable) loadRecord(id string) (*job, bool) {
	path := filepath.Join(t.dir, id+".json")
	if !isJobID(id) {
		_ = os.Remove(path)
		return nil, false
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.metrics.storeErrors.Add(1)
		return nil, false
	}
	var rec jobRecord
	if err := json.Unmarshal(data, &rec); err != nil || rec.V != jobRecordVersion || rec.ID != id {
		_ = os.Remove(path)
		return nil, false
	}
	j := &job{
		id:      rec.ID,
		key:     rec.Key,
		created: time.UnixMilli(rec.CreatedUnixMS),
		status:  rec.Status,
		code:    rec.Code,
		message: rec.Message,
	}
	j.repairAttempts.Store(rec.RepairAttempts)
	j.tilesDone.Store(rec.TilesDone)
	if rec.Status == jobQueued || rec.Status == jobRunning {
		// The previous process died with this job in flight; it must
		// resurface with a typed verdict, never vanish or stay "running"
		// forever.
		j.status = jobFailed
		j.code = codeInterrupted
		j.message = "server restarted while the job was " + rec.Status
		t.persist(j.snapshot())
	}
	return j, true
}

// persist atomically writes a job record; failures are counted, not
// fatal (the in-memory table remains authoritative for this process).
func (t *jobTable) persist(rec jobRecord) {
	if t.dir == "" {
		return
	}
	data, err := json.Marshal(rec)
	if err != nil {
		t.metrics.storeErrors.Add(1)
		return
	}
	f, err := os.CreateTemp(t.dir, "tmp-*")
	if err != nil {
		t.metrics.storeErrors.Add(1)
		return
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		t.metrics.storeErrors.Add(1)
		return
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		t.metrics.storeErrors.Add(1)
		return
	}
	if err := os.Rename(tmp, filepath.Join(t.dir, rec.ID+".json")); err != nil {
		_ = os.Remove(tmp)
		t.metrics.storeErrors.Add(1)
	}
}

// get looks up a job by id.
func (t *jobTable) get(id string) (*job, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.jobs[id]
	return j, ok
}

// add registers a new job, evicting the oldest terminal job when full.
// It fails (table saturated with live jobs) rather than evict work in
// progress.
func (t *jobTable) add(j *job) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.jobs) >= t.max && !t.evictLocked() {
		return fmt.Errorf("job table full: %d jobs queued or running", len(t.jobs))
	}
	t.jobs[j.id] = j
	t.order = append(t.order, j.id)
	return nil
}

// evictLocked removes oldest terminal jobs until the table fits under
// max, reporting whether at least one slot is free. Caller holds t.mu.
func (t *jobTable) evictLocked() bool {
	for len(t.jobs) >= t.max {
		victim := ""
		keep := t.order[:0]
		for i, id := range t.order {
			j, ok := t.jobs[id]
			if ok && victim == "" && j.terminal() {
				victim = id
				keep = append(keep, t.order[i+1:]...)
				break
			}
			keep = append(keep, id)
		}
		t.order = keep
		if victim == "" {
			return false
		}
		delete(t.jobs, victim)
		t.metrics.jobsEvicted.Add(1)
		if t.dir != "" {
			_ = os.Remove(filepath.Join(t.dir, victim+".json"))
		}
	}
	return true
}

// newJobID returns a fresh 32-hex-char job id.
func newJobID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(b[:]), nil
}

// isJobID reports whether s looks like an id newJobID generated — the
// gate before an untrusted id (URL path, recovered filename) is used in
// a file path.
func isJobID(s string) bool {
	if len(s) != 32 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Wire shapes for the jobs routes.

type jobSubmitResponse struct {
	ID        string `json:"id"`
	Status    string `json:"status"`
	StatusURL string `json:"status_url"`
}

type jobProgress struct {
	RepairAttempts int64 `json:"repair_attempts"`
	TilesDone      int64 `json:"tiles_done"`
}

type jobStatusResponse struct {
	ID            string      `json:"id"`
	Status        string      `json:"status"`
	Key           string      `json:"key"`
	CreatedUnixMS int64       `json:"created_unix_ms"`
	Progress      jobProgress `json:"progress"`
	ResultURL     string      `json:"result_url,omitempty"`
	Error         *wireError  `json:"error,omitempty"`
}

// handleJobSubmit is POST /v1/jobs.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests.Add(1)
	if !s.admit(w) {
		return
	}
	nw, opts, key, ok := s.decodeSynthesizeRequest(w, r)
	if !ok {
		return
	}
	id, err := newJobID()
	if err != nil {
		writeErrorCode(w, codeInternal, nil, "generating job id: %v", err)
		return
	}
	jobctx, cancel := context.WithCancel(s.base)
	j := &job{id: id, key: key, created: time.Now(), cancel: cancel, status: jobQueued}
	if err := s.jobs.add(j); err != nil {
		cancel()
		writeErrorCode(w, codeOverloaded, nil, "%v", err)
		return
	}
	s.metrics.jobsSubmitted.Add(1)
	s.metrics.jobsActive.Add(1)
	s.jobs.persist(j.snapshot())
	s.wg.Add(1)
	go s.runJob(jobctx, j, nw, opts)
	writeJSON(w, http.StatusAccepted, jobSubmitResponse{
		ID:        id,
		Status:    jobQueued,
		StatusURL: "/v1/jobs/" + id,
	})
}

// runJob drives one job to a terminal state. It owns all of the job's
// transitions (cancel only signals ctx), so persisted records never
// interleave.
func (s *Server) runJob(ctx context.Context, j *job, nw *logic.Network, opts core.Options) {
	defer s.wg.Done()
	defer j.cancel() // release the derived context once terminal
	if body, _, ok, _ := s.cache.get(j.key); ok && len(body) > 0 {
		s.finishJob(j, "", "")
		return
	}
	j.mu.Lock()
	j.status = jobRunning
	j.mu.Unlock()
	s.jobs.persist(j.snapshot())

	pctx := core.WithProgress(ctx, core.Progress{
		RepairAttempt: func(n int) { j.repairAttempts.Store(int64(n)) },
		TileDone:      func(n int) { j.tilesDone.Store(int64(n)) },
	})
	fl, leader := s.flights.do(j.key, func() ([]byte, error) {
		return s.solve(pctx, j.key, nw, opts)
	})
	if leader {
		s.metrics.cacheMisses.Add(1)
	} else {
		s.metrics.cacheShared.Add(1)
	}
	_, err := fl.wait(ctx)
	if err == nil {
		s.finishJob(j, "", "")
		return
	}
	code, _ := classifySolveError(err)
	msg := solveErrorMessage(code, err)
	if code == codeCanceled && ctx.Err() != nil && s.base.Err() == nil {
		msg = "job canceled"
	}
	s.finishJob(j, code, msg)
}

// finishJob records the terminal transition (done when code is empty,
// failed otherwise), updates gauges and persists the final record unless
// shutdown cut the job short.
func (s *Server) finishJob(j *job, code, message string) {
	j.mu.Lock()
	if code == "" {
		j.status = jobDone
	} else {
		j.status = jobFailed
		j.code = code
		j.message = message
	}
	j.mu.Unlock()
	s.metrics.jobsActive.Add(-1)
	if code == "" {
		s.metrics.jobsDone.Add(1)
	} else {
		s.metrics.jobsFailed.Add(1)
	}
	if code != "" && s.base.Err() != nil {
		// Cut short by shutdown: keep the last on-disk record (queued or
		// running) so the next process reports the job as interrupted,
		// exactly as after a crash — and write nothing into a store
		// directory that is being drained or removed.
		return
	}
	s.jobs.persist(j.snapshot())
}

// jobStatusView renders a job's pollable state.
func jobStatusView(j *job) jobStatusResponse {
	j.mu.Lock()
	status, code, message := j.status, j.code, j.message
	j.mu.Unlock()
	resp := jobStatusResponse{
		ID:            j.id,
		Status:        status,
		Key:           j.key,
		CreatedUnixMS: j.created.UnixMilli(),
		Progress: jobProgress{
			RepairAttempts: j.repairAttempts.Load(),
			TilesDone:      j.tilesDone.Load(),
		},
	}
	switch status {
	case jobDone:
		resp.ResultURL = "/v1/jobs/" + j.id + "/result"
	case jobFailed:
		resp.Error = &wireError{Code: code, Message: message}
	}
	return resp
}

// lookupJob resolves the {id} path value, writing the 404 envelope when
// absent.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) (*job, bool) {
	id := r.PathValue("id")
	j, ok := s.jobs.get(id)
	if !ok {
		writeErrorCode(w, codeJobNotFound, nil, "no job %q", id)
		return nil, false
	}
	return j, true
}

// handleJobStatus is GET /v1/jobs/{id}.
func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, jobStatusView(j))
}

// handleJobResult is GET /v1/jobs/{id}/result: the completed body from
// the cache tiers, byte-identical to what a synchronous request would
// have received.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	j.mu.Lock()
	status := j.status
	j.mu.Unlock()
	if status != jobDone {
		writeErrorCode(w, codeJobNotDone, jobStatusView(j), "job %s is %s, not done", j.id, status)
		return
	}
	body, disposition, ok, err := s.cache.get(j.key)
	if err != nil {
		writeErrorCode(w, codeStoreUnavailable, nil, "reading stored result: %v", err)
		return
	}
	if !ok {
		writeErrorCode(w, codeResultEvicted, nil, "job %s completed but its result was evicted from the cache; resubmit", j.id)
		return
	}
	s.countCacheHit(disposition)
	s.writeResult(w, disposition, body)
}

// handleJobCancel is DELETE /v1/jobs/{id}. Canceling a terminal job is a
// no-op that reports the (unchanged) state; canceling a live one signals
// its context, and the runJob goroutine records the failed("canceled")
// transition.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	if j.cancel != nil && !j.terminal() {
		j.cancel()
	}
	writeJSON(w, http.StatusOK, jobStatusView(j))
}
