package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"ppj/internal/frame"
)

// FileName is the log's file name inside its data directory.
const FileName = "wal.log"

// Log is an append-only record writer. Append fsyncs before it returns,
// so an appended record survives a host crash, and so does every record
// written before it: Write writes a record without the fsync, leaving it
// to the next Append (or Close) to make durable. Once any write or
// injected fault fails, the log seals itself: later writes return
// ErrCrashed rather than writing after an unknown on-disk state (the same
// stance production WALs take after an fsync error).
type Log struct {
	mu      sync.Mutex
	f       *os.File
	faults  *Faults
	crashed bool
	closed  bool
	// unsynced: a record Write wrote has not been fsynced yet.
	unsynced bool
}

// Open opens (creating as needed) dir's log for appending, writing the
// magic into an empty one: it is durable with the first fsynced record,
// and a crash before that leaves a torn create. Callers reopening after a
// crash should run Recover first so a torn tail is truncated before new
// records follow it.
func Open(dir string, faults *Faults) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, FileName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	fi, err := f.Stat()
	if err == nil && fi.Size() == 0 {
		_, err = f.Write(magic)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	return &Log{f: f, faults: faults}, nil
}

// Append encodes, writes, and fsyncs one record, firing the SiteAppend and
// SiteSync faultpoints around the write. The fsync also makes durable every
// record Write wrote before it.
func (l *Log) Append(rec Record) error { return l.write(rec, true) }

// Write encodes and writes one record without an fsync, firing SiteAppend
// only: the record is durable once the next Append or Close returns. A
// crash before then may lose it, and with it only records written after
// it, since the log is one append-only file.
func (l *Log) Write(rec Record) error { return l.write(rec, false) }

func (l *Log) write(rec Record, sync bool) error {
	buf, err := rec.encodeFrame()
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.crashed {
		return ErrCrashed
	}
	if err := l.faults.Fire(SiteAppend); err != nil {
		l.crashed = true
		switch {
		case errors.Is(err, ErrShortWrite):
			l.f.Write(buf[:len(buf)/2])
			l.f.Sync()
		case errors.Is(err, ErrTornWrite):
			l.f.Write(buf[:frame.HeaderLen-2])
			l.f.Sync()
		}
		return err
	}
	if _, err := l.f.Write(buf); err != nil {
		l.crashed = true
		return fmt.Errorf("wal: %w", err)
	}
	l.unsynced = true
	if !sync {
		return nil
	}
	return l.syncLocked()
}

// syncLocked fsyncs everything written so far, firing SiteSync first.
func (l *Log) syncLocked() error {
	if err := l.faults.Fire(SiteSync); err != nil {
		l.crashed = true
		return err
	}
	if err := l.f.Sync(); err != nil {
		l.crashed = true
		return fmt.Errorf("wal: %w", err)
	}
	l.unsynced = false
	return nil
}

// Crash seals the log: nothing further is written and every later Append
// returns ErrCrashed. Tests use it (via faultpoints) to freeze the on-disk
// state at a chosen instant; the process then "dies" by abandoning the
// server and recovering from the directory.
func (l *Log) Crash() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.crashed = true
}

// Close fsyncs a tail that Write left unsynced, unless the log is sealed,
// then releases the file; further writes return ErrCrashed. It is
// idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	var err error
	if !l.crashed && l.unsynced {
		err = l.syncLocked()
	}
	l.crashed, l.closed = true, true
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Recover replays dir's log, returning every durable record and truncating
// any torn or corrupt tail so the next Open appends after the last valid
// record. A missing directory or file, or a prefix of the magic, is an
// empty history, not an error. A log without the magic is refused with
// ErrFormat and left as it is.
func Recover(dir string) ([]Record, error) {
	path := filepath.Join(dir, FileName)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	raw, err := io.ReadAll(f)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var recs []Record
	off := 0
	switch {
	case bytes.HasPrefix(raw, magic):
		recs, off = Replay(raw[len(magic):])
		off += len(magic)
	case !bytes.HasPrefix(magic, raw):
		return nil, fmt.Errorf("%w: %s", ErrFormat, path)
	}
	if len(raw) > off {
		if err := f.Truncate(int64(off)); err != nil {
			return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
	}
	return recs, nil
}
