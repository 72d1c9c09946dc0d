package trace

// The two decisions every persisted format shares: how a file reaches
// disk, and how a file's header is classified. The campaign database,
// its CSV export, the profile cache, the checkpoint journal's header and
// the replay trace are all written through one File, and every reader
// reports what it rejects with the same two sentinels.

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Decode failures classify into two families, matchable with errors.Is.
var (
	// ErrVersion: the file is from an incompatible format version.
	ErrVersion = errors.New("trace: unsupported format version")
	// ErrCorrupt: the bytes are not a sound file — damaged where no crash
	// can tear them, or internally inconsistent.
	ErrCorrupt = errors.New("trace: corrupt file")
)

// syncWriter is a file's write side: its writes and its fsync.
type syncWriter interface {
	io.Writer
	Sync() error
}

// fileWriter is what every file write and fsync goes through; tests
// replace it with one that fails partway to prove no error is dropped.
var fileWriter = func(f *os.File) syncWriter { return f }

// File is a file on its way to a path. Where the path holds a regular
// file, or nothing, it is written to a temporary file beside the path,
// through gzip when asked, and reaches the path only through a Commit
// that got every byte to disk; until then, and whatever fails, the path
// holds what it held before. As with os.Create, a symbolic link is
// written through: its target is replaced and the link stays. A path
// that holds anything but a regular file, such as /dev/null or a pipe,
// is written in place, as os.Create would: a rename would replace the
// device itself, and a device takes no fsync. After a failed Write, call
// Abort.
type File struct {
	path    string
	out     *os.File     // the temporary file, or the path itself
	w       syncWriter   // fileWriter(out)
	gz      *gzip.Writer // nil for a plain file
	inPlace bool
}

// Create starts a write of path, gzip-compressed when gzipped.
func Create(path string, gzipped bool) (*File, error) {
	if target, err := filepath.EvalSymlinks(path); err == nil {
		path = target
	}
	f := &File{path: path}
	var err error
	if fi, serr := os.Stat(path); serr == nil && !fi.Mode().IsRegular() {
		f.inPlace = true
		f.out, err = os.Create(path)
	} else {
		dir, base := filepath.Split(path)
		f.out, err = os.CreateTemp(dir, base+".tmp*")
	}
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	f.w = fileWriter(f.out)
	if gzipped {
		f.gz = gzip.NewWriter(f.w)
	}
	return f, nil
}

// Write writes p to the file, compressed when the file is gzipped.
func (f *File) Write(p []byte) (int, error) {
	if f.gz != nil {
		return f.gz.Write(p)
	}
	return f.w.Write(p)
}

// Commit puts the file at its path: it flushes the gzip stream, sets mode
// 0644 (what os.Create gives under the usual umask 022), fsyncs and
// closes the file, and renames it over the path. Every step's error is
// checked, so a write that never fully reached the disk (ENOSPC on the
// last flush) cannot report success; on any error the temporary file is
// removed and the path is untouched. A file written in place is only
// flushed and closed.
func (f *File) Commit() error {
	var err error
	if f.gz != nil {
		err = f.gz.Close()
	}
	if err == nil && !f.inPlace {
		err = f.out.Chmod(0o644)
	}
	if err == nil && !f.inPlace {
		err = f.w.Sync()
	}
	if cerr := f.out.Close(); err == nil {
		err = cerr
	}
	if err == nil && !f.inPlace {
		err = os.Rename(f.out.Name(), f.path)
	}
	if err != nil {
		f.Abort()
		return fmt.Errorf("trace: writing %s: %w", f.path, err)
	}
	return nil
}

// Abort discards the file, leaving its path as it was. After Commit it
// does nothing.
func (f *File) Abort() {
	f.out.Close()
	if !f.inPlace {
		os.Remove(f.out.Name())
	}
}

// writeFile writes path through encode as one File, gzip-compressed when
// path ends in ".gz".
func writeFile(path string, encode func(io.Writer) error) error {
	f, err := Create(path, strings.HasSuffix(path, ".gz"))
	if err != nil {
		return err
	}
	if err := encode(f); err != nil {
		f.Abort()
		return err
	}
	return f.Commit()
}

// readFile returns the contents of path, gunzipped when path ends in
// ".gz". The gzip stream is read through its trailer, so a corrupt
// checksum or a cut-off stream is ErrCorrupt (wrapping gzip.ErrChecksum
// or io.ErrUnexpectedEOF too) instead of going unchecked.
func readFile(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if !strings.HasSuffix(path, ".gz") {
		return data, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err == nil {
		data, err = readAll(zr)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: gunzip %s: %w", ErrCorrupt, path, err)
	}
	return data, nil
}

// readAll reads r to EOF. bytes.Buffer doubles its capacity as it grows,
// where io.ReadAll grows by about a quarter at these sizes: reading a
// 42 MB database allocates 128 MB instead of 240 MB.
func readAll(r io.Reader) ([]byte, error) {
	var buf bytes.Buffer
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// decodeWhole decodes data, which must hold one JSON value and nothing
// after it but whitespace, into v. Anything else is ErrCorrupt; what
// names the format in the error.
func decodeWhole(data []byte, what string, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: %s: %w", ErrCorrupt, what, err)
	}
	if len(bytes.TrimLeft(data[dec.InputOffset():], jsonSpace)) != 0 {
		return fmt.Errorf("%w: %s: trailing data after envelope", ErrCorrupt, what)
	}
	return nil
}

// DecodeHeader decodes raw, the header of a file in the named format,
// into h. The format and version are probed first, on their own, so that
// a header from another version, which may carry fields this reader has
// never heard of, is a version error rather than corruption:
//
//   - a header naming another format, or neither a format nor a version
//     (`{}`, `null`), is ErrCorrupt;
//   - a header naming this format, or none, at another version is
//     ErrVersion (a version-1 checkpoint names no format);
//   - a header at this version must name this format and decode
//     strictly: an unknown field is ErrCorrupt.
func DecodeHeader(raw []byte, format string, version int, h any) error {
	var probe struct {
		Format  string `json:"format"`
		Version int    `json:"version"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		return fmt.Errorf("%w: %s header: %v", ErrCorrupt, format, err)
	}
	switch {
	case probe.Format != "" && probe.Format != format:
		return fmt.Errorf("%w: not a %s header: format %q", ErrCorrupt, format, probe.Format)
	case probe.Format == "" && probe.Version == 0:
		return fmt.Errorf("%w: not a %s header: no format or version", ErrCorrupt, format)
	case probe.Version != version:
		return fmt.Errorf("%w: %s version %d, want %d", ErrVersion, format, probe.Version, version)
	case probe.Format == "":
		return fmt.Errorf("%w: not a %s header: no format", ErrCorrupt, format)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(h); err != nil {
		return fmt.Errorf("%w: malformed %s header: %v", ErrCorrupt, format, err)
	}
	return nil
}
