package store

import "sync/atomic"

// Hooks intercept the store's file I/O for fault injection — the chaos
// suites (internal/server/chaos_test.go) wire them to simulate disk errors and
// crash-torn writes without build tags or filesystem tricks. Production
// code leaves them uninstalled; the cost of the probe is one atomic load
// per file operation.
type Hooks struct {
	// AppendFrame is consulted with the target path and the encoded
	// edit-record frame before it is appended (EditLogFile.Append,
	// AppendEditRecordFile). Returning (len(frame), nil) passes. Returning
	// an error with keep == 0 injects a clean failure: nothing is written
	// and the append fails as a disk error would. Returning an error with
	// keep > 0 injects a torn write: only the first keep bytes land on disk
	// and the failure path skips its truncate repair — exactly the state a
	// crash mid-write leaves, which RecoverEditLogFile must clean up before
	// the next append.
	AppendFrame func(path string, frame []byte) (keep int, err error)
	// WriteFile is consulted with the target path before an atomic
	// replace (WriteEditLogFile, SaveCheckpointFile); an error aborts the
	// operation before the temporary file is created.
	WriteFile func(path string) error
}

var hooks atomic.Pointer[Hooks]

// SetHooks installs h as the store's I/O hooks; nil uninstalls. Intended
// for tests only — callers must uninstall before the test ends.
func SetHooks(h *Hooks) { hooks.Store(h) }

// hookAppendFrame applies the AppendFrame hook; keep is only meaningful
// when err != nil.
func hookAppendFrame(path string, frame []byte) (keep int, err error) {
	if h := hooks.Load(); h != nil && h.AppendFrame != nil {
		return h.AppendFrame(path, frame)
	}
	return len(frame), nil
}

// hookWriteFile applies the WriteFile hook.
func hookWriteFile(path string) error {
	if h := hooks.Load(); h != nil && h.WriteFile != nil {
		return h.WriteFile(path)
	}
	return nil
}
