package gatherings

import (
	"runtime"

	"repro/internal/engine"
)

// The streaming engine: a thread-safe service over the §III-C incremental
// algorithm. An Engine ingests trajectory batches through a bounded queue
// into one incremental store while answering snapshot queries for the
// current closed crowds and gatherings, filtered by time window and
// bounding box. See EngineConfig for the concurrency knobs.
type (
	// Engine is the concurrent streaming-discovery service.
	Engine = engine.Engine
	// EngineConfig configures the build parallelism and the bounded
	// ingest queue.
	EngineConfig = engine.Config
	// EngineQuery selects crowds and gatherings from an engine snapshot;
	// the zero value matches everything.
	EngineQuery = engine.Query
	// EngineResult is one snapshot answer (crowds with their gatherings).
	EngineResult = engine.Result
	// TickWindow is an inclusive tick interval for EngineQuery.
	TickWindow = engine.TickWindow
)

// Engine ingest errors.
var (
	// ErrQueueFull is returned by Engine.TryAppend when the bounded
	// ingest queue is full.
	ErrQueueFull = engine.ErrQueueFull
	// ErrEngineClosed is returned by appends after Engine.Close.
	ErrEngineClosed = engine.ErrClosed
)

// DefaultEngineConfig returns the paper's pipeline defaults wrapped in a
// serving-oriented engine setup: each batch's snapshot clusters are built
// with one goroutine per CPU, behind the default ingest queue of 4
// batches.
func DefaultEngineConfig() EngineConfig {
	return EngineConfig{
		Pipeline: DefaultConfig(),
		Workers:  runtime.GOMAXPROCS(0),
	}
}

// NewEngine creates a streaming engine and starts its applier. Close it to
// stop the applier; queries remain valid afterwards.
func NewEngine(cfg EngineConfig) (*Engine, error) { return engine.New(cfg) }
