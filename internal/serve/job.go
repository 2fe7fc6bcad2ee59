package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"nwade/internal/cliconf"
	"nwade/internal/obs"
	"nwade/internal/sim"
	"nwade/internal/snap"
)

// JobState is a job's position in its lifecycle. queued and running
// survive a daemon kill (both restart as queued); parked is the
// migration state — checkpointed, detached from the worker pool, and
// adoptable by another daemon via Import; done, failed and canceled are
// terminal.
type JobState string

const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobParked   JobState = "parked"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// jobStates is every state in rendering order (list endpoint, metrics).
var jobStates = []JobState{JobQueued, JobRunning, JobParked, JobDone, JobFailed, JobCanceled}

// terminal reports whether a state ends the job's lifecycle: no worker
// will ever touch it again and its checkpoint is garbage.
func (st JobState) terminal() bool {
	return st == JobDone || st == JobFailed || st == JobCanceled
}

// JobResult is the summary of a finished run. Digest is the replay-gate
// identity — metrics.Digest of the run result for a single
// intersection, the roadnet network digest for a network job — so a
// resumed (or migrated) job proving bit-equality to an uninterrupted
// one is one string comparison.
type JobResult struct {
	Spawned     int `json:"spawned"`
	Exited      int `json:"exited"`
	Collisions  int `json:"collisions"`
	Retransmits int `json:"retransmits"`
	// Regions is the region count of a network job (0 for a single
	// intersection); traffic counts are network-wide sums.
	Regions int    `json:"regions,omitempty"`
	Digest  string `json:"digest"`
}

// JobRecord is the durable form of a job: everything needed to rebuild
// and finish it after a daemon restart — or in a different daemon
// entirely, via Import. The scenario is stored as a snap.Spec — the
// same named, rebuildable form checkpoints use — so the job file and
// its ckpt.snap can never disagree about configuration.
type JobRecord struct {
	ID                string    `json:"id"`
	Spec              snap.Spec `json:"spec"`
	CheckpointEveryNS int64     `json:"checkpoint_every_ns"`
	ThrottleNS        int64     `json:"throttle_ns,omitempty"`
	State             JobState  `json:"state"`
	// Client is the submitting client's identity ("" = anonymous);
	// quotas and the per-client metrics gauges key on it.
	Client string `json:"client,omitempty"`
	// Priority orders dispatch: higher runs first, FIFO within a class.
	Priority int `json:"priority,omitempty"`
	// CancelRequested survives a daemon kill: a cancel accepted for a
	// queued or running job holds across restarts, so recovery finishes
	// the job as canceled instead of resurrecting it.
	CancelRequested bool `json:"cancel_requested,omitempty"`
	// DispatchSeq is the order this job was handed to a worker (1-based
	// per daemon life); it makes priority scheduling auditable.
	DispatchSeq int        `json:"dispatch_seq,omitempty"`
	Resumes     int        `json:"resumes,omitempty"`
	Error       string     `json:"error,omitempty"`
	Result      *JobResult `json:"result,omitempty"`
}

// WriteJob persists a job record atomically (temp + rename), so a kill
// mid-write leaves the previous record, never a torn one.
func WriteJob(path string, rec JobRecord) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: job record: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("serve: job record: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("serve: job record: %w", err)
	}
	return nil
}

// ReadJob loads a persisted job record.
func ReadJob(path string) (JobRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return JobRecord{}, fmt.Errorf("serve: job record: %w", err)
	}
	var rec JobRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return JobRecord{}, fmt.Errorf("serve: job record %s: %w", path, err)
	}
	return rec, nil
}

// job is one submission's live form: the durable record plus the
// in-memory machinery around it.
type job struct {
	id  string
	dir string
	// seq is the admission order (submission or recovery), the FIFO tie
	// break within a priority class; dispatchSeq is assigned when the
	// scheduler hands the job to a worker.
	seq         int
	dispatchSeq int
	// client and pri mirror the record for lock-free scheduler reads.
	client string
	pri    int

	mu  sync.Mutex // guards rec
	rec JobRecord

	simNowNS atomic.Int64
	cancel   atomic.Bool
	drain    atomic.Bool
	// finished makes the terminal transition exactly-once, so a cancel
	// racing the run loop cannot double-close done.
	finished atomic.Bool
	// crash is the in-process stand-in for kill -9 (the CI service job
	// does it for real): the run loop abandons the job without
	// persisting anything further, leaving state "running" on disk so
	// the next daemon start must resume it.
	crash atomic.Bool

	bc   *broadcaster
	done chan struct{}
}

func (j *job) recordPath() string { return filepath.Join(j.dir, "job.json") }
func (j *job) ckptPath() string   { return filepath.Join(j.dir, "ckpt.snap") }
func (j *job) tracePath() string  { return filepath.Join(j.dir, "trace.jsonl") }

// snapshot returns a copy of the record for rendering.
func (j *job) snapshot() JobRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec
}

// update mutates the record under the lock and persists it.
func (j *job) update(f func(*JobRecord)) error {
	j.mu.Lock()
	f(&j.rec)
	rec := j.rec
	j.mu.Unlock()
	return WriteJob(j.recordPath(), rec)
}

// finish moves the job to a terminal state exactly once: persist first,
// then close the stream (subscribers see the last trace line before
// their channel ends), delete the now-stale checkpoint, and signal
// waiters. Safe on jobs that never opened a broadcaster (recovered
// terminal jobs, cancels honored during recovery).
func (j *job) finish(f func(*JobRecord)) {
	if !j.finished.CompareAndSwap(false, true) {
		return
	}
	if err := j.update(f); err != nil {
		// The run is over either way; the record on disk is stale but
		// intact (WriteJob is atomic). Surface it to status readers.
		j.setError(err)
	}
	if j.bc != nil {
		if err := j.bc.Close(); err != nil {
			j.setError(err)
		}
	}
	// A terminal job never resumes; its checkpoint is dead weight and
	// would only confuse a later Import or state-dir audit.
	if err := os.Remove(j.ckptPath()); err != nil && !os.IsNotExist(err) {
		j.setError(err)
	}
	close(j.done)
}

// setError records a teardown error on the in-memory record if the job
// doesn't already carry one.
func (j *job) setError(err error) {
	j.mu.Lock()
	if j.rec.Error == "" {
		j.rec.Error = err.Error()
	}
	j.mu.Unlock()
}

// runJob executes one job on a pool worker: build (or restore) the
// run — single-intersection or road-network, behind cliconf.Run — step
// it to completion with periodic checkpoints, record the result. The
// digest of a job that was killed and resumed, drained and adopted by
// another daemon, or suspended any number of times is bit-identical to
// an uninterrupted run — the engine's restore guarantee, which the CI
// service job re-proves end to end.
func (s *Server) runJob(j *job) {
	if j.cancel.Load() {
		j.finish(func(r *JobRecord) { r.State = JobCanceled })
		return
	}
	if err := j.update(func(r *JobRecord) {
		r.State = JobRunning
		r.DispatchSeq = j.dispatchSeq
	}); err != nil {
		s.failJob(j, err)
		return
	}
	rec := j.snapshot()
	cfg, err := rec.Spec.Scenario()
	if err != nil {
		s.failJob(j, err)
		return
	}
	duration := cfg.Normalize().Duration

	sink := obs.New(obs.Options{Trace: j.bc})
	sink.WriteMeta(obs.Meta{
		Tool:         "nwade-serve",
		Scenario:     cfg.Attack.Name,
		Seed:         cfg.Seed,
		Intersection: cfg.Intersection,
		DurationNS:   int64(duration),
	})

	run, err := openRun(cfg, j.ckptPath(), sink)
	if err != nil {
		s.failJob(j, err)
		return
	}
	j.simNowNS.Store(int64(run.Now()))

	every := time.Duration(rec.CheckpointEveryNS)
	throttle := time.Duration(rec.ThrottleNS)
	next := duration
	if every > 0 {
		// First checkpoint boundary strictly ahead of the (possibly
		// restored) clock, aligned to multiples of the interval.
		next = every * (run.Now()/every + 1)
	}
	for run.Now() < duration {
		if j.crash.Load() {
			// Simulated power loss: close the fds a real kill would
			// close, persist nothing.
			if err := j.bc.Close(); err != nil {
				_ = err // the "process" is gone; nobody to report to
			}
			return
		}
		if j.cancel.Load() {
			j.finish(func(r *JobRecord) { r.State = JobCanceled })
			return
		}
		if j.drain.Load() {
			s.parkJob(j, run, rec.Spec)
			return
		}
		select {
		case <-s.stopping:
			s.suspendJob(j, run, rec.Spec)
			return
		default:
		}
		run.Step()
		s.ticks.Add(1)
		j.simNowNS.Store(int64(run.Now()))
		if every > 0 && run.Now() >= next && run.Now() < duration {
			if err := s.checkpoint(j, run, rec.Spec); err != nil {
				s.failJob(j, err)
				return
			}
			next += every
		}
		if throttle > 0 {
			time.Sleep(throttle)
		}
	}
	res := jobResult(run.Result())
	if err := sink.Close(); err != nil {
		s.failJob(j, fmt.Errorf("trace: %w", err))
		return
	}
	j.finish(func(r *JobRecord) {
		r.State = JobDone
		r.Result = &res
	})
}

// openRun builds the job's run, or restores it when a checkpoint exists
// at ckptPath. The checkpoint's own kind — single or network — decides;
// it can never disagree with cfg because both derive from the same
// persisted spec.
func openRun(cfg sim.Scenario, ckptPath string, sink *obs.Sink) (*cliconf.Run, error) {
	var ckpt *cliconf.Checkpoint
	if _, err := os.Stat(ckptPath); err == nil {
		if ckpt, err = cliconf.Load(ckptPath); err != nil {
			return nil, fmt.Errorf("resume checkpoint: %w", err)
		}
	}
	run, err := cliconf.Open(cfg, ckpt, sink, nil)
	if err != nil && ckpt != nil {
		return nil, fmt.Errorf("resume checkpoint: %w", err)
	}
	return run, err
}

// jobResult renders a run's result in the API form. A network job's
// digest is the network digest — exactly what nwade-sim -network
// prints — so an HTTP-submitted job and a batch run of the same
// scenario compare by one string.
func jobResult(res cliconf.Result) JobResult {
	return JobResult{
		Spawned:     res.Spawned,
		Exited:      res.Exited,
		Collisions:  res.Collisions,
		Retransmits: res.Retransmits,
		Regions:     res.Regions,
		Digest:      res.Digest,
	}
}

// checkpoint snapshots the run at the current tick boundary and
// replaces ckpt.snap atomically: at every instant there is exactly one
// complete checkpoint on disk for a killed daemon to resume from.
func (s *Server) checkpoint(j *job, run *cliconf.Run, spec snap.Spec) error {
	tmp := j.ckptPath() + ".tmp"
	if err := run.Checkpoint(tmp, spec); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.Rename(tmp, j.ckptPath()); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// suspendJob parks a running job for daemon shutdown: checkpoint at the
// current boundary, back to queued, stream closed. The next daemon
// start re-enqueues it and the engine restores exactly here.
func (s *Server) suspendJob(j *job, run *cliconf.Run, spec snap.Spec) {
	if err := s.checkpoint(j, run, spec); err != nil {
		s.failJob(j, fmt.Errorf("suspend: %w", err))
		return
	}
	if err := j.update(func(r *JobRecord) { r.State = JobQueued }); err != nil {
		s.failJob(j, err)
		return
	}
	if err := j.bc.Close(); err != nil {
		s.failJob(j, err)
	}
	// done stays open: the job is not over, this daemon just is.
}

// parkJob detaches a running job for migration: checkpoint at the
// current boundary, mark parked, release the trace stream. The job
// directory is now self-contained — another daemon adopts it with
// Import and finishes it digest-identically.
func (s *Server) parkJob(j *job, run *cliconf.Run, spec snap.Spec) {
	if err := s.checkpoint(j, run, spec); err != nil {
		s.failJob(j, fmt.Errorf("drain: %w", err))
		return
	}
	s.park(j)
}

// park marks a job parked and closes its stream; the checkpoint (if
// any) already sits in the job directory. Queued jobs park directly —
// a fresh adopter simply starts them from the beginning.
func (s *Server) park(j *job) {
	if err := j.update(func(r *JobRecord) { r.State = JobParked }); err != nil {
		s.failJob(j, err)
		return
	}
	if j.bc != nil {
		if err := j.bc.Close(); err != nil {
			j.setError(err)
		}
	}
	s.parked.Add(1)
	// done stays open: parked is not terminal.
}

// failJob records a terminal failure.
func (s *Server) failJob(j *job, err error) {
	j.finish(func(r *JobRecord) {
		r.State = JobFailed
		r.Error = err.Error()
	})
}
