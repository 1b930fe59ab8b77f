package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
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

// Open opens (creating as needed) dir's log for appending. Callers
// reopening after a crash should run Recover first so a torn tail is
// truncated before new records follow it.
func Open(dir string, faults *Faults) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, FileName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
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
	frame, err := rec.encodeFrame()
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
			l.f.Write(frame[:len(frame)/2])
			l.f.Sync()
		case errors.Is(err, ErrTornWrite):
			n := headerSize - 2
			if n > len(frame) {
				n = len(frame)
			}
			l.f.Write(frame[:n])
			l.f.Sync()
		}
		return err
	}
	if _, err := l.f.Write(frame); err != nil {
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
// record. A missing directory or file is an empty history, not an error.
func Recover(dir string) ([]Record, error) {
	f, err := os.OpenFile(filepath.Join(dir, FileName), os.O_RDWR, 0)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	recs, off := Replay(bufio.NewReader(f))
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if fi.Size() > off {
		if err := f.Truncate(off); err != nil {
			return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
	}
	return recs, nil
}
