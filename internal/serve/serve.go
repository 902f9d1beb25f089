// Package serve is tsteinerd: refinement-as-a-service over the repo's
// robustness substrates. A long-lived stdlib net/http daemon accepts
// designs as designio JSON, runs sign-off / train / refine jobs through a
// bounded work queue, and hands results plus per-job obs NDJSON traces
// back. The headline property is robustness — no request can crash the
// process, hang it, or make its results depend on load:
//
//   - Admission control: the queue is bounded; a full queue answers
//     429 with Retry-After instead of buffering unboundedly, and a
//     draining server answers 503 the same way.
//   - Per-job budgets: every job may carry a wall-clock deadline
//     (guard.Budget). Training and refinement degrade to best-so-far
//     with Result.Cutoff — a deadline is never a 500.
//   - Containment: a panicking job is caught as a *par.PanicError and
//     marked failed; the worker and the server keep running.
//   - Crash safety: requests are spooled in CRC-checksummed envelopes
//     before they are admitted, train/refine progress is checkpointed
//     (guard.WriteCheckpoint), and a restarted server re-enqueues every
//     non-terminal job it finds in the spool. A job killed mid-run
//     resumes from its checkpoint and produces artifacts byte-identical
//     to an uninterrupted run — the determinism invariant, extended to
//     the concurrent server (TestServeJobs* gates).
//   - Idempotency: job IDs are client-chosen; resubmitting an ID the
//     server already knows returns its current status instead of running
//     the job again, so a client retry storm never double-runs work.
//   - Train once, refine many: trained evaluators are cached in memory
//     and on disk, keyed by a design-family hash (canonical design bytes
//   - the training inputs), with singleflight so concurrent jobs of
//     one family train exactly once.
//
// Determinism note: job *artifacts* (result.json, forest.json) are pure
// functions of the request and are byte-identical at any queue depth,
// worker count, submission order, or kill/restart point. Status records,
// traces and metrics are side channels and carry wall-clock facts.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"tsteiner/internal/sta"
)

// Job kinds. Signoff runs the baseline pipeline (place if needed, Steiner,
// route, STA) and reports sign-off metrics. Train additionally fits the
// timing evaluator for the design family and caches it. Refine runs the
// full TSteiner loop — train (or reuse the cached evaluator), refine
// Steiner points, and re-run sign-off on the refined forest.
const (
	KindSignoff = "signoff"
	KindTrain   = "train"
	KindRefine  = "refine"
)

// Job states. Queued and Running are transient; Interrupted means the
// process died (or an injected kill fired) mid-job — the job is spooled
// with its checkpoints and will resume on the next server start. Done and
// Failed are terminal.
const (
	StateQueued      = "queued"
	StateRunning     = "running"
	StateInterrupted = "interrupted"
	StateDone        = "done"
	StateFailed      = "failed"
)

// ErrInterrupted marks a job stopped mid-run with resumable state on disk
// (the simulated process kill of the fault matrix). The server parks the
// job as StateInterrupted; a restart scan re-enqueues and resumes it.
var ErrInterrupted = errors.New("serve: job interrupted")

// JobRequest is the POST /jobs body. ID is the client-chosen idempotency
// key and spool directory name; Design is the designio design JSON,
// embedded verbatim.
type JobRequest struct {
	ID   string
	Kind string // KindSignoff | KindTrain | KindRefine

	// Design is the designio JSON of the design to operate on. Clients
	// building requests from files may set DesignFile locally; it must be
	// resolved (inlined into Design) before submission — the server
	// rejects requests that still reference a client-side path.
	Design     json.RawMessage
	DesignFile string `json:",omitempty"`

	// Seed drives every random choice of the job (0 = 2023, the CLI
	// default). Epochs/AugmentVariants shape evaluator training, Iters
	// and Lanes the refinement loop; zero values take the documented
	// defaults in Normalize.
	Seed            int64
	Epochs          int
	Iters           int
	Lanes           int
	AugmentVariants int

	// Workers bounds the job's internal parallel fan-outs
	// (0 = all CPUs). Results are byte-identical at any value.
	Workers int

	// Shards > 0 switches a refine job to the sharded incremental
	// refiner (internal/shard) instead of the GNN loop: no evaluator is
	// trained, Iters becomes the round budget, and the result is
	// byte-identical at any shard count. 0 (the default) keeps the GNN
	// refinement path.
	Shards int

	// DeadlineMS is the per-job wall-clock budget in milliseconds
	// (0 = unlimited). Training and refinement degrade to best-so-far
	// (JobResult.Cutoff); budget expiry during a flow phase fails the
	// job cleanly with a typed reason.
	DeadlineMS int64

	// Corners lists extra sign-off corners. When set, the job's sign-off
	// runs report the per-corner matrix (JobResult.BaselineCorners /
	// RefinedCorners), GNN refinement optimizes the matrix penalty under
	// the hold guard, and sharded refinement takes its round verdicts on
	// the matrix. Empty = typical corner only; corners do not enter the
	// model-family hash because training labels stay typical-corner.
	Corners []sta.Corner `json:",omitempty"`
}

// Normalize applies the documented defaults in place: Seed 0 → 2023,
// Epochs ≤ 0 → 60, Iters ≤ 0 → 25, AugmentVariants 0 → 2 (use a negative
// value for "no augmentation"). It must run before FamilyHash so that
// spelled-out defaults and omitted fields land in the same family.
func (r *JobRequest) Normalize() {
	if r.Seed == 0 {
		r.Seed = 2023
	}
	if r.Epochs <= 0 {
		r.Epochs = 60
	}
	if r.Iters <= 0 {
		r.Iters = 25
	}
	// A negative AugmentVariants means "no augmentation" and must stay
	// negative: Normalize runs again on the server after the client's
	// JSON roundtrip, so every mapping here has to be idempotent — if -1
	// collapsed to 0 it would re-normalize to the default 2 on arrival
	// and silently change the training recipe.
	if r.AugmentVariants == 0 {
		r.AugmentVariants = 2
	}
	if r.Workers < 0 {
		r.Workers = 1
	}
	if r.Lanes < 0 {
		r.Lanes = 0
	}
	if r.DeadlineMS < 0 {
		r.DeadlineMS = 0
	}
	if r.Shards < 0 {
		r.Shards = 0 // every "unsharded" spelling is the GNN path
	}
}

// maxima keeping one hostile request from monopolizing the server.
const (
	maxIDLen   = 64
	maxEpochs  = 1 << 20
	maxIters   = 1 << 20
	maxShards  = 1 << 12
	maxCorners = 8
)

// Validate rejects malformed requests with a descriptive error. The ID
// doubles as a spool directory name, so its charset is restricted and
// dot-only names (".", "..") are refused outright.
func (r *JobRequest) Validate() error {
	if r.ID == "" {
		return fmt.Errorf("serve: job ID is required")
	}
	if len(r.ID) > maxIDLen {
		return fmt.Errorf("serve: job ID longer than %d bytes", maxIDLen)
	}
	alnum := false
	for i := 0; i < len(r.ID); i++ {
		c := r.ID[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
			alnum = true
		case c == '.' || c == '_' || c == '-':
		default:
			return fmt.Errorf("serve: job ID %q: only [a-zA-Z0-9._-] allowed", r.ID)
		}
	}
	if !alnum {
		return fmt.Errorf("serve: job ID %q must contain a letter or digit", r.ID)
	}
	switch r.Kind {
	case KindSignoff, KindTrain, KindRefine:
	default:
		return fmt.Errorf("serve: unknown job kind %q (want %s|%s|%s)", r.Kind, KindSignoff, KindTrain, KindRefine)
	}
	if len(r.Design) == 0 {
		return fmt.Errorf("serve: job %s has no design", r.ID)
	}
	if r.DesignFile != "" {
		return fmt.Errorf("serve: job %s references a client-side design file; inline the design before submitting", r.ID)
	}
	if r.Epochs > maxEpochs || r.Iters > maxIters {
		return fmt.Errorf("serve: job %s exceeds the per-job work bounds (epochs %d, iters %d)", r.ID, r.Epochs, r.Iters)
	}
	if r.Shards > maxShards {
		return fmt.Errorf("serve: job %s asks for %d shards (max %d)", r.ID, r.Shards, maxShards)
	}
	if len(r.Corners) > maxCorners {
		return fmt.Errorf("serve: job %s asks for %d corners (max %d)", r.ID, len(r.Corners), maxCorners)
	}
	if err := sta.ValidateCorners(r.Corners); err != nil {
		return fmt.Errorf("serve: job %s: %w", r.ID, err)
	}
	return nil
}

// Metrics are the deterministic sign-off numbers of one flow run — the
// Table II columns, with wall-clock fields deliberately excluded so the
// record is byte-identical across runs.
type Metrics struct {
	WNS, TNS      float64
	Vios          int
	WirelengthDBU int64
	Vias          int
	DRVs          int
	Overflow      int
}

// JobResult is a job's deterministic outcome: a pure function of the
// request bytes. Anything wall-clock-shaped (runtimes, cache hit/miss,
// attempt counts) lives in JobStatus or the obs trace instead.
type JobResult struct {
	ID     string
	Kind   string
	Design string
	Seed   int64

	// Baseline is the sign-off of the unrefined design (every kind).
	Baseline Metrics
	// BaselineCorners is the baseline's multi-corner sign-off matrix
	// (requests with Corners set only).
	BaselineCorners []sta.CornerMetrics `json:",omitempty"`

	// Evaluator facts (train and refine kinds).
	ModelHash  string  `json:",omitempty"`
	R2All      float64 `json:",omitempty"`
	R2Ends     float64 `json:",omitempty"`
	FamilyHash string  `json:",omitempty"`

	// Refinement facts (refine kind).
	Refined *Metrics `json:",omitempty"`
	// RefinedCorners is the refined forest's multi-corner sign-off
	// matrix (refine requests with Corners set only).
	RefinedCorners   []sta.CornerMetrics `json:",omitempty"`
	Iterations       int                 `json:",omitempty"`
	ConvergedByRatio bool                `json:",omitempty"`
	EvalInitWNS      float64             `json:",omitempty"`
	EvalBestWNS      float64             `json:",omitempty"`
	EvalInitTNS      float64             `json:",omitempty"`
	EvalBestTNS      float64             `json:",omitempty"`

	// Degradation facts: a budget cutoff or exhausted numerical
	// recoveries returns the best solution so far, recorded here —
	// degradation is an answer, never an error.
	Cutoff     string `json:",omitempty"`
	Degraded   bool   `json:",omitempty"`
	Recoveries int    `json:",omitempty"`
}

// JobStatus is the GET /jobs/{id} body: the job's lifecycle state plus
// its result when terminal. Attempts counts run starts (resumes
// included), so it depends on kill history — status is not part of the
// byte-identity contract, the result is.
type JobStatus struct {
	ID       string
	Kind     string
	State    string
	Error    string `json:",omitempty"`
	Attempts int
	Result   *JobResult `json:",omitempty"`
}

// familyHashVersion tags the hash input so any change to the training
// recipe (augment geometry, evaluator config, learning rate) that is not
// captured by the hashed fields can invalidate old cache entries by
// bumping the tag.
const familyHashVersion = "tsteiner-family-v1"

// FamilyHash keys the model cache: a digest of the canonical design bytes
// and every training input that shapes the evaluator (seed, epochs,
// augmentation). Jobs that differ only in formatting of the design JSON,
// worker count, lanes, or deadline share a family — train once, refine
// many.
func FamilyHash(canonicalDesign []byte, seed int64, epochs, augmentVariants int) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%d|%d|%d|", familyHashVersion, seed, epochs, augmentVariants)
	h.Write(canonicalDesign)
	return hex.EncodeToString(h.Sum(nil))[:24]
}
