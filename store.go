package ricjs

import (
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// FS abstracts the filesystem operations a RecordStore performs. The
// production implementation is the OS filesystem; fault-injection
// harnesses substitute one that fails on demand (ENOSPC on save, EIO on
// load, rename failure) to prove the store degrades instead of wedging.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	ReadFile(path string) ([]byte, error)
	// WriteTemp creates a uniquely named file in dir from pattern (as
	// os.CreateTemp), writes data, and returns the file's path.
	WriteTemp(dir, pattern string, data []byte) (string, error)
	Rename(oldpath, newpath string) error
	Remove(path string) error
	ReadDir(path string) ([]fs.DirEntry, error)
}

// NewOSFS returns the production FS backed by the real filesystem, for
// fault wrappers that need a base to delegate to.
func NewOSFS() FS { return osFS{} }

// osFS is the production FS backed by the real filesystem.
type osFS struct{}

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) ReadFile(path string) ([]byte, error)         { return os.ReadFile(path) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(path string) error                     { return os.Remove(path) }
func (osFS) ReadDir(path string) ([]fs.DirEntry, error)   { return os.ReadDir(path) }

func (osFS) WriteTemp(dir, pattern string, data []byte) (string, error) {
	tmp, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return "", err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return "", err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return "", err
	}
	return name, nil
}

// RecordStore persists ICRecords in a directory, one file per key, the
// way a browser persists its code cache between sessions. Keys are
// caller-chosen names (typically the script name); they are sanitized
// into file names with a short hash of the raw key appended, so distinct
// keys never collide on a file (plain sanitization maps both "a/b" and
// "a_b" to "a_b").
type RecordStore struct {
	dir string
	fs  FS
}

// OpenRecordStore creates (if necessary) and opens a record store rooted
// at dir on the real filesystem.
func OpenRecordStore(dir string) (*RecordStore, error) {
	return OpenRecordStoreFS(dir, osFS{})
}

// OpenRecordStoreFS opens a record store over an explicit filesystem;
// fault harnesses use it to inject I/O errors.
func OpenRecordStoreFS(dir string, fsys FS) (*RecordStore, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ricjs: open record store: %w", err)
	}
	return &RecordStore{dir: dir, fs: fsys}, nil
}

// recordExt is the file extension of stored records; quarantineExt is
// appended to it for records set aside as corrupt. Any other file in the
// directory (such as the .key sidecars older versions wrote) is ignored.
const (
	recordExt     = ".ric"
	quarantineExt = ".bad"
)

// fileStem maps a key to its extension-less file name: the sanitized key
// plus a short hash of the raw key (collision insurance for keys that
// sanitize identically).
func (s *RecordStore) fileStem(key string) string {
	var b strings.Builder
	for _, c := range key {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c >= '0' && c <= '9', c == '-', c == '_', c == '.':
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	name := b.String()
	if name == "" {
		name = "record"
	}
	return fmt.Sprintf("%s-%08x", name, crc32.ChecksumIEEE([]byte(key)))
}

// path maps a key to its file path.
func (s *RecordStore) path(key string) string {
	return filepath.Join(s.dir, s.fileStem(key)+recordExt)
}

// Save persists a record under a key, replacing any previous record. The
// write is atomic (temp file + rename), so a crashed writer never leaves
// a truncated record for the next session to trip over.
func (s *RecordStore) Save(key string, record *Record) error {
	return s.SaveBytes(key, record.Encode())
}

// SaveBytes persists raw encoded bytes under a key without decoding
// them. Tooling and fault harnesses use it to plant exactly the bytes a
// failed or interrupted writer would leave; production callers should
// prefer Save.
func (s *RecordStore) SaveBytes(key string, data []byte) error {
	tmpName, err := s.fs.WriteTemp(s.dir, "ric-*", data)
	if err != nil {
		return fmt.Errorf("ricjs: save record: %w", err)
	}
	if err := s.fs.Rename(tmpName, s.path(key)); err != nil {
		s.fs.Remove(tmpName)
		return fmt.Errorf("ricjs: save record: %w", err)
	}
	return nil
}

// Load reads the record stored under a key. A missing key returns
// (nil, nil): no record yet is the normal cold-start case, not an error.
// Corrupt records (including records in a superseded wire format) are
// quarantined — renamed to <name>.ric.bad for operator inspection — and
// reported as absent, so one bad write can never wedge future sessions
// while the evidence of what went wrong is preserved.
func (s *RecordStore) Load(key string) (*Record, error) {
	rec, _, err := s.LoadStatus(key)
	return rec, err
}

// LoadStatus is Load with quarantine visibility: quarantined reports that
// this call found a corrupt record and set it aside. Load swallows that
// fact by design (a quarantine is self-healing, not an error), but the
// SessionPool must count it, or a store silently eating .ric.bad files
// is invisible in aggregate stats.
func (s *RecordStore) LoadStatus(key string) (rec *Record, quarantined bool, err error) {
	data, err := s.fs.ReadFile(s.path(key))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("ricjs: load record: %w", err)
	}
	rec, derr := DecodeRecord(data)
	if derr != nil {
		// Self-heal: set the corrupt record aside; the next Initial run
		// regenerates it. A quarantine that itself fails leaves the poison
		// in place — every future Load would re-decode and re-fail — so
		// that failure is surfaced instead of swallowed.
		if qerr := s.Quarantine(key); qerr != nil {
			return nil, false, fmt.Errorf("ricjs: load record: corrupt record survived: %w", qerr)
		}
		return nil, true, nil
	}
	return rec, false, nil
}

// Quarantine moves the record stored under a key (if any) to its
// quarantine name. Callers use it when a record that decodes fine still
// proves bad in use — fails bytecode validation or degrades a run — so
// the poisoned record cannot reach the next session.
func (s *RecordStore) Quarantine(key string) error {
	p := s.path(key)
	err := s.fs.Rename(p, p+quarantineExt)
	if err == nil || os.IsNotExist(err) {
		return nil
	}
	// Last resort: a record that can be neither quarantined nor left in
	// place is removed; losing the forensic copy beats letting the poison
	// persist. Only when the remove fails too — the poison file survives
	// and will be re-read by every future Load — is an error returned.
	if rerr := s.fs.Remove(p); rerr != nil && !os.IsNotExist(rerr) {
		return fmt.Errorf("ricjs: quarantine record: rename: %v; remove: %w", err, rerr)
	}
	return nil
}

// Quarantined lists the file names of quarantined records, sorted, so
// operators can inspect what went wrong.
func (s *RecordStore) Quarantined() ([]string, error) {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("ricjs: list quarantined records: %w", err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, recordExt+quarantineExt) {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Delete removes the record stored under a key, if any.
func (s *RecordStore) Delete(key string) error {
	err := s.fs.Remove(s.path(key))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}
