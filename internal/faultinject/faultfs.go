package faultinject

import (
	"io/fs"
	"os"
	"syscall"

	"ricjs"
)

// Canonical I/O errors the harness injects, matching what a real
// filesystem produces.
var (
	// ErrNoSpace is the disk-full error injected on record saves.
	ErrNoSpace error = syscall.ENOSPC
	// ErrIO is the hardware read error injected on record loads.
	ErrIO error = syscall.EIO
)

// FaultFS wraps a RecordStore filesystem, failing selected operations so
// tests can prove the store treats I/O failure as degradation, never as
// corruption or a crash. A nil error field passes the operation through.
type FaultFS struct {
	Base ricjs.FS

	// ReadErr fails ReadFile (EIO on load).
	ReadErr error
	// WriteErr fails WriteTemp (ENOSPC on save).
	WriteErr error
	// RenameErr fails Rename (the atomic-commit step of Save and the
	// quarantine step of Load).
	RenameErr error
	// RemoveErr fails Remove (temp-file cleanup and the last-resort
	// deletion a failed quarantine falls back to).
	RemoveErr error
	// MkdirErr fails MkdirAll (store creation).
	MkdirErr error
	// ReadDirErr fails ReadDir (the listing step of Quarantined).
	ReadDirErr error
}

var _ ricjs.FS = (*FaultFS)(nil)

// MkdirAll implements ricjs.FS.
func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	if f.MkdirErr != nil {
		return f.MkdirErr
	}
	return f.Base.MkdirAll(path, perm)
}

// ReadFile implements ricjs.FS.
func (f *FaultFS) ReadFile(path string) ([]byte, error) {
	if f.ReadErr != nil {
		return nil, f.ReadErr
	}
	return f.Base.ReadFile(path)
}

// WriteTemp implements ricjs.FS.
func (f *FaultFS) WriteTemp(dir, pattern string, data []byte) (string, error) {
	if f.WriteErr != nil {
		return "", f.WriteErr
	}
	return f.Base.WriteTemp(dir, pattern, data)
}

// Rename implements ricjs.FS.
func (f *FaultFS) Rename(oldpath, newpath string) error {
	if f.RenameErr != nil {
		return f.RenameErr
	}
	return f.Base.Rename(oldpath, newpath)
}

// Remove implements ricjs.FS.
func (f *FaultFS) Remove(path string) error {
	if f.RemoveErr != nil {
		return f.RemoveErr
	}
	return f.Base.Remove(path)
}

// ReadDir implements ricjs.FS.
func (f *FaultFS) ReadDir(path string) ([]fs.DirEntry, error) {
	if f.ReadDirErr != nil {
		return nil, f.ReadDirErr
	}
	return f.Base.ReadDir(path)
}
