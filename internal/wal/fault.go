package wal

import (
	"errors"
	"fmt"
	"os"
	"sync"
)

// Crash injection for the durability test harness.
//
// A FaultInjector stands in for the operating system's volatile page
// cache: installed as Options.OpenSegment, it wraps every segment file
// in a write-back layer where Write only buffers in memory and Sync
// flushes the buffer to the real file and fsyncs it. "Power loss" is
// then a deterministic operation — Kill (or an armed fault point) drops
// every unsynced byte, exactly what a real crash does to writes that
// never reached a successful fsync. Fault points:
//
//   - CrashBeforeSync(n): the nth commit-path Sync fails before any
//     buffered byte reaches the file — the whole group vanishes.
//   - CrashDuringSync(n, k): the nth Sync persists only the first k
//     buffered bytes, then fails — a torn group tail, possibly cutting a
//     frame mid-payload.
//   - Kill(): immediate power cut; everything unsynced is dropped.
//
// Hold parks every Sync until Release, so tests form commit groups by
// construction instead of by timing: the flush leader waits inside
// Sync, and every GroupAppend arriving meanwhile queues behind it and
// rides the next fsync.
//
// After a fault fires the injector is "crashed": every later Write and
// Sync fails, and Close drops buffered bytes instead of flushing them —
// the process is dead, nothing more reaches disk. Reopening the
// directory with a plain Log then exercises real recovery (torn-tail
// truncation + replay) against exactly the bytes a power cut would have
// left behind.

// ErrInjected is the failure surfaced by an armed fault point.
var ErrInjected = errors.New("wal: injected crash")

// FaultInjector fabricates power-cut scenarios around the group fsync
// and parks it on request (Hold). Install with
// Options{OpenSegment: fi.Open}. Safe for concurrent use.
type FaultInjector struct {
	mu      sync.Mutex
	crashed bool
	syncs   int // commit-path Sync calls observed
	armedAt int // fire on the armedAt-th Sync (1-based; 0 = disarmed)
	torn    int // bytes of the buffered tail that still reach disk
	files   []*FaultFile
	release chan struct{} // non-nil while held; closed by Release
	parked  chan struct{} // closed once a Sync waits at the hold
}

// CrashBeforeSync arms a power cut on the nth Sync call (1-based,
// counted from now): nothing buffered reaches the file.
func (fi *FaultInjector) CrashBeforeSync(n int) {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	fi.armedAt = fi.syncs + n
	fi.torn = 0
}

// CrashDuringSync arms a power cut mid-flush on the nth Sync call:
// only the first tornBytes of the buffered tail reach the file (the
// torn prefix may end inside a batch frame), then the machine dies.
func (fi *FaultInjector) CrashDuringSync(n, tornBytes int) {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	fi.armedAt = fi.syncs + n
	fi.torn = tornBytes
}

// Hold makes every later Sync wait until Release. The returned channel
// closes once a Sync is parked — from then on GroupAppends queue behind
// the parked flush.
func (fi *FaultInjector) Hold() <-chan struct{} {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	fi.release, fi.parked = make(chan struct{}), make(chan struct{})
	return fi.parked
}

// Release lets the parked Sync, and every later one, proceed.
func (fi *FaultInjector) Release() {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	if fi.release != nil {
		close(fi.release)
		fi.release = nil
	}
}

// Kill cuts power now: every buffered (unsynced) byte in every open
// segment is dropped, and all further I/O fails.
func (fi *FaultInjector) Kill() {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	fi.crashed = true
	for _, f := range fi.files {
		f.buf = nil
	}
}

// Crashed reports whether a fault point has fired (or Kill was called).
func (fi *FaultInjector) Crashed() bool {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.crashed
}

// Syncs returns the number of successful Sync calls observed.
func (fi *FaultInjector) Syncs() int {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.syncs
}

// Open is the Options.OpenSegment hook: it opens the real file and
// wraps it in the write-back fault layer.
func (fi *FaultInjector) Open(path string) (SegmentFile, error) {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	if fi.crashed {
		return nil, ErrInjected
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o600)
	if err != nil {
		return nil, err
	}
	ff := &FaultFile{fi: fi, f: f}
	fi.files = append(fi.files, ff)
	return ff, nil
}

// FaultFile is one segment under the write-back fault layer.
type FaultFile struct {
	fi  *FaultInjector
	f   *os.File
	buf []byte // written but not yet synced — lost on crash
}

// Write buffers p in memory only; the bytes reach the file at the next
// successful Sync — until then a crash loses them, like an OS page
// cache on power loss.
func (ff *FaultFile) Write(p []byte) (int, error) {
	ff.fi.mu.Lock()
	defer ff.fi.mu.Unlock()
	if ff.fi.crashed {
		return 0, ErrInjected
	}
	ff.buf = append(ff.buf, p...)
	return len(p), nil
}

// Sync flushes the buffered tail to the real file and fsyncs it —
// unless an armed fault point fires first. While the injector is held
// it first waits for Release.
func (ff *FaultFile) Sync() error {
	ff.fi.mu.Lock()
	if release := ff.fi.release; release != nil {
		select {
		case <-ff.fi.parked:
		default:
			close(ff.fi.parked)
		}
		ff.fi.mu.Unlock()
		<-release
		ff.fi.mu.Lock()
	}
	defer ff.fi.mu.Unlock()
	if ff.fi.crashed {
		return ErrInjected
	}
	ff.fi.syncs++
	if ff.fi.armedAt > 0 && ff.fi.syncs >= ff.fi.armedAt {
		ff.fi.crashed = true
		if ff.fi.torn > 0 && len(ff.buf) > 0 {
			n := ff.fi.torn
			if n > len(ff.buf) {
				n = len(ff.buf)
			}
			// The torn prefix made it out of the cache before the cut.
			if _, err := ff.f.Write(ff.buf[:n]); err != nil {
				return fmt.Errorf("%w (torn write failed: %v)", ErrInjected, err)
			}
			ff.f.Sync()
		}
		for _, f := range ff.fi.files {
			f.buf = nil
		}
		return ErrInjected
	}
	if len(ff.buf) > 0 {
		if _, err := ff.f.Write(ff.buf); err != nil {
			return err
		}
		ff.buf = nil
	}
	return ff.f.Sync()
}

// Close flushes and closes the real file on a clean shutdown; after a
// crash it drops the buffer and just releases the descriptor.
func (ff *FaultFile) Close() error {
	ff.fi.mu.Lock()
	defer ff.fi.mu.Unlock()
	if !ff.fi.crashed && len(ff.buf) > 0 {
		if _, err := ff.f.Write(ff.buf); err != nil {
			ff.f.Close()
			return err
		}
		ff.buf = nil
		if err := ff.f.Sync(); err != nil {
			ff.f.Close()
			return err
		}
	}
	return ff.f.Close()
}
