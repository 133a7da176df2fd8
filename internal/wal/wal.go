// Package wal is the engine's write-ahead log: an append-only file of
// admitted trajectory batches, logged in admission order before they are
// applied, so a crashed process can replay everything since its last
// checkpoint and resume with an identical gathering set.
//
// The format is deliberately dumb. A fixed file header, then one framed
// record per batch:
//
//	header:  magic "GWAL" | uint32 version
//	record:  uint32 payloadLen | uint32 crc32(payload) | payload
//	payload: uint64 seq | domain (start, step float64 bits; uint32 n)
//	         | uint32 ntrajs | per trajectory:
//	           uint64 id | uint32 nsamples | per sample: time, x, y float64 bits
//
// A record holds, per trajectory, only the batch window's samples plus the
// two bracketing samples (trajectory.Window over the domain's first and
// last tick), and skips trajectories absent from the window. That is exact
// because interpolation reads only those samples, so a replayed batch
// builds the same snapshots as the live one, while a record costs the
// batch, not the history behind it. Logs written before the cut hold whole
// trajectories in the same format and replay unchanged.
//
// All integers are little-endian. The length/CRC frame makes a torn tail
// — the half-written record of the write that crashed — detectable:
// Replay stops at the first frame that does not check out and reports the
// byte offset of the valid prefix, which Open truncates away. Records are
// encoded into a buffer reused across appends, so steady-state logging
// does not allocate (guarded by TestWriterAppendAllocs).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"repro/internal/geo"
	"repro/internal/trajectory"
)

const (
	magic      = "GWAL"
	version    = 1
	headerSize = 8 // magic + uint32 version
	frameSize  = 8 // uint32 len + uint32 crc
)

// maxRecordSize bounds a single record so a corrupt length field cannot
// drive a multi-gigabyte allocation during replay.
const maxRecordSize = 1 << 30

// ErrCorrupt is wrapped by Replay errors describing an unreadable log.
var ErrCorrupt = errors.New("wal: corrupt")

// SyncMode decides when the log is fsynced to stable storage — the
// durability/throughput dial of the crash-recovery window.
//
// SyncAppend is the strict default: every appended batch reaches the disk
// before it is applied, so a crash (process or machine) loses nothing the
// admission stage released. SyncCheckpoint and SyncOff leave appends in
// the page cache: a process crash still replays them (the kernel holds the
// bytes), but a machine crash can lose every batch since the last fsync —
// the "durable" window then silently depends on the page cache, which is
// exactly the tradeoff to buy back fsync latency on ingest-bound nodes.
// See docs/INVARIANTS.md ("WAL sync modes").
type SyncMode int

const (
	// SyncAppend fsyncs after every Append (strict durability).
	SyncAppend SyncMode = iota
	// SyncCheckpoint fsyncs only at checkpoint boundaries and Close.
	SyncCheckpoint
	// SyncOff never fsyncs; durability rides the page cache entirely.
	SyncOff
)

// ParseSyncMode maps the gatherserve -wal-sync flag values onto modes.
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "always", "append":
		return SyncAppend, nil
	case "checkpoint":
		return SyncCheckpoint, nil
	case "off", "never":
		return SyncOff, nil
	}
	return 0, fmt.Errorf("wal: unknown sync mode %q (want always, checkpoint or off)", s)
}

// String renders the mode as its canonical flag value.
func (m SyncMode) String() string {
	switch m {
	case SyncCheckpoint:
		return "checkpoint"
	case SyncOff:
		return "off"
	}
	return "always"
}

// Writer appends batches to a write-ahead log file. Methods are not safe
// for concurrent use: the log belongs to the single admission goroutine
// (gatherserve's ingest loop), which is also what keeps record order
// equal to admission order.
type Writer struct {
	f    *os.File
	buf  []byte // reused encode buffer
	mode SyncMode
}

// Create opens path for appending, writing the file header when the file
// is new or empty, and truncating a torn tail left by a crash (it replays
// the frames to find the valid prefix). The writer syncs on every append
// (SyncAppend); use SetSync to relax it.
func Create(path string) (*Writer, error) {
	valid, _, err := scan(path, nil)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	w := &Writer{f: f}
	if valid == 0 {
		// New or headerless file: start it fresh.
		if err := w.reset(); err != nil {
			f.Close()
			return nil, err
		}
		return w, nil
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// SetSync sets when the writer fsyncs (see SyncMode). Call it before the
// first Append; it is not safe to change concurrently with writes.
func (w *Writer) SetSync(m SyncMode) { w.mode = m }

// Mode returns the writer's current sync mode.
func (w *Writer) Mode() SyncMode { return w.mode }

// Append logs one admitted batch under its admission sequence number. The
// record is written in a single Write call; Sync decides durability per
// the writer's SyncMode.
func (w *Writer) Append(seq uint64, db *trajectory.DB) error {
	buf := w.buf[:0]
	// Frame placeholder, patched below.
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	buf = EncodePayload(buf, seq, db)
	w.buf = buf
	payload := buf[frameSize:]
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	_, err := w.f.Write(buf)
	return err
}

// EncodePayload appends the wire encoding of one (sequence, batch) record
// to buf and returns it. The format is the WAL record payload — uint64 seq,
// the batch domain, then each trajectory's window samples (see the package
// doc) — and is shared with the cluster forwarding data plane
// (internal/cluster/rpc), so a forwarded batch and a logged batch are
// byte-identical and either side can decode the other.
func EncodePayload(buf []byte, seq uint64, db *trajectory.DB) []byte {
	lo, hi := db.Domain.Start, db.Domain.End()
	buf = putUint64(buf, seq)
	buf = putFloat(buf, db.Domain.Start)
	buf = putFloat(buf, db.Domain.Step)
	buf = putUint32(buf, uint32(db.Domain.N))
	at := len(buf)
	buf = putUint32(buf, 0) // trajectory count, patched below
	ntr := 0
	for i := range db.Trajs {
		tr := &db.Trajs[i]
		w := tr.Window(lo, hi)
		if len(w) == 0 {
			continue
		}
		ntr++
		buf = putUint64(buf, uint64(tr.ID))
		buf = putUint32(buf, uint32(len(w)))
		for _, s := range w {
			buf = putFloat(buf, s.Time)
			buf = putFloat(buf, s.P.X)
			buf = putFloat(buf, s.P.Y)
		}
	}
	binary.LittleEndian.PutUint32(buf[at:], uint32(ntr))
	return buf
}

// DecodePayload unmarshals a payload produced by EncodePayload.
func DecodePayload(p []byte) (uint64, *trajectory.DB, error) { return decode(p) }

// Sync flushes the log to stable storage when the writer's mode is
// SyncAppend; under the relaxed modes it is a no-op (use ForceSync at
// checkpoint boundaries).
func (w *Writer) Sync() error {
	if w.mode != SyncAppend {
		return nil
	}
	return w.f.Sync()
}

// ForceSync flushes the log regardless of the sync mode — the checkpoint
// and shutdown barrier for SyncCheckpoint.
func (w *Writer) ForceSync() error {
	if w.mode == SyncOff {
		return nil
	}
	return w.f.Sync()
}

// Reset truncates the log back to an empty header — the checkpoint has
// made everything in it redundant.
func (w *Writer) Reset() error { return w.reset() }

func (w *Writer) reset() error {
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	var hdr [headerSize]byte
	copy(hdr[:4], magic)
	binary.LittleEndian.PutUint32(hdr[4:], version)
	if _, err := w.f.Write(hdr[:]); err != nil {
		return err
	}
	return w.f.Sync()
}

// Close closes the underlying file (without an implicit Sync).
func (w *Writer) Close() error { return w.f.Close() }

// Replay reads every intact record of the log at path, in order, calling
// fn for each. A missing file replays zero records. A torn or corrupt
// tail ends the replay silently — those bytes never finished being
// written, so they hold at most a batch the producer will re-deliver —
// but a corrupt header or an unreadable file is an error. The returned
// count is the number of records delivered to fn.
func Replay(path string, fn func(seq uint64, db *trajectory.DB) error) (int, error) {
	_, n, err := scan(path, fn)
	return n, err
}

// scan walks the log, validating frames; fn (when non-nil) receives each
// decoded record. It returns the byte offset of the valid prefix.
func scan(path string, fn func(seq uint64, db *trajectory.DB) error) (valid int64, n int, err error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, err
	}
	if len(data) == 0 {
		return 0, 0, nil
	}
	if len(data) < headerSize || string(data[:4]) != magic {
		return 0, 0, fmt.Errorf("%w: bad header in %s", ErrCorrupt, path)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != version {
		return 0, 0, fmt.Errorf("%w: %s is log version %d, this build reads %d", ErrCorrupt, path, v, version)
	}
	at := int64(headerSize)
	rest := data[headerSize:]
	for len(rest) >= frameSize {
		plen := binary.LittleEndian.Uint32(rest[0:4])
		if plen > maxRecordSize || int(plen) > len(rest)-frameSize {
			break // torn tail
		}
		payload := rest[frameSize : frameSize+int(plen)]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[4:8]) {
			break // torn or corrupt tail
		}
		if fn != nil {
			seq, db, derr := decode(payload)
			if derr != nil {
				break // frame intact but payload malformed: treat as tail
			}
			if err := fn(seq, db); err != nil {
				return at, n, err
			}
		}
		n++
		at += frameSize + int64(plen)
		rest = rest[frameSize+int(plen):]
	}
	return at, n, nil
}

// Byte sizes of the encoded parts, which bound what a count may claim.
const (
	trajHeaderSize = 12 // uint64 id + uint32 nsamples
	sampleSize     = 24 // time, x, y float64 bits
)

// decode unmarshals one record payload. It also decodes peer-supplied
// forwards, so every count is checked against the bytes left to back it
// before anything is allocated: decoding allocates at most a small
// constant times len(p).
func decode(p []byte) (uint64, *trajectory.DB, error) {
	r := reader{p: p}
	seq := r.uint64()
	db := &trajectory.DB{}
	db.Domain.Start = r.float()
	db.Domain.Step = r.float()
	db.Domain.N = int(r.uint32())
	ntr := int(r.uint32())
	if r.bad || ntr < 0 || ntr > len(r.p)/trajHeaderSize {
		return 0, nil, fmt.Errorf("%w: record shape", ErrCorrupt)
	}
	if d := db.Domain; math.IsNaN(d.Start) || math.IsInf(d.Start, 0) ||
		!(d.Step > 0) || math.IsInf(d.Step, 1) || d.N < 0 {
		return 0, nil, fmt.Errorf("%w: record domain %+v", ErrCorrupt, d)
	}
	db.Trajs = make([]trajectory.Trajectory, 0, ntr)
	for i := 0; i < ntr; i++ {
		id := trajectory.ObjectID(r.uint64())
		ns := int(r.uint32())
		if r.bad || ns < 0 || ns > len(r.p)/sampleSize {
			return 0, nil, fmt.Errorf("%w: record shape", ErrCorrupt)
		}
		samples := make([]trajectory.Sample, ns)
		prev := math.Inf(-1)
		for j := range samples {
			samples[j].Time = r.float()
			samples[j].P = geo.Point{X: r.float(), Y: r.float()}
			if !(prev <= samples[j].Time) {
				return 0, nil, fmt.Errorf("%w: object %d: samples out of time order", ErrCorrupt, id)
			}
			prev = samples[j].Time
		}
		db.Trajs = append(db.Trajs, trajectory.Trajectory{ID: id, Samples: samples})
	}
	if r.bad || len(r.p) != 0 {
		return 0, nil, fmt.Errorf("%w: record shape", ErrCorrupt)
	}
	return seq, db, nil
}

// reader is a bounds-checked little-endian cursor.
type reader struct {
	p   []byte
	bad bool
}

func (r *reader) uint32() uint32 {
	if r.bad || len(r.p) < 4 {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.p)
	r.p = r.p[4:]
	return v
}

func (r *reader) uint64() uint64 {
	if r.bad || len(r.p) < 8 {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.p)
	r.p = r.p[8:]
	return v
}

func (r *reader) float() float64 { return math.Float64frombits(r.uint64()) }

func putUint32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func putUint64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func putFloat(b []byte, f float64) []byte { return putUint64(b, math.Float64bits(f)) }
