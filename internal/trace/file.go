package trace

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// syncWriter is a file's write side: its writes and its fsync.
type syncWriter interface {
	io.Writer
	Sync() error
}

// fileWriter is what every file write and fsync goes through; tests
// replace it with one that fails partway to prove no error is dropped.
var fileWriter = func(f *os.File) syncWriter { return f }

// writeFile writes path through encode, gzip-compressed when path ends in
// ".gz". Every error on the way out is checked — the encode, the final
// gzip flush, the fsync of an atomic write, and the close — so a write
// that never fully reached the file (ENOSPC on the last flush) cannot
// report success. An atomic write goes to a temporary file beside path,
// renamed over it only once everything succeeded; on any failure the
// temporary file is removed and the previous file at path is untouched.
func writeFile(path string, atomic bool, encode func(io.Writer) error) error {
	var f *os.File
	var err error
	if atomic {
		dir, base := filepath.Split(path)
		f, err = os.CreateTemp(dir, base+".tmp*")
	} else {
		f, err = os.Create(path)
	}
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := fileWriter(f)
	err = encodeTo(w, strings.HasSuffix(path, ".gz"), encode)
	if err == nil && atomic {
		if err = w.Sync(); err != nil {
			err = fmt.Errorf("trace: %w", err)
		}
	}
	if cerr := f.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("trace: %w", cerr)
	}
	if err == nil && atomic {
		if err = os.Rename(f.Name(), path); err != nil {
			err = fmt.Errorf("trace: %w", err)
		}
	}
	if err != nil && atomic {
		os.Remove(f.Name())
	}
	return err
}

// encodeTo runs encode against w, through a gzip stream when gzipped,
// and reports the gzip flush's error as well as the encoder's.
func encodeTo(w io.Writer, gzipped bool, encode func(io.Writer) error) error {
	if !gzipped {
		return encode(w)
	}
	gz := gzip.NewWriter(w)
	if err := encode(gz); err != nil {
		gz.Close()
		return err
	}
	if err := gz.Close(); err != nil {
		return fmt.Errorf("trace: gzip: %w", err)
	}
	return nil
}

// readFile returns the contents of path, gunzipped when path ends in
// ".gz". The gzip stream is read through its trailer, so a corrupt
// checksum or a cut-off stream is an error (wrapping gzip.ErrChecksum or
// io.ErrUnexpectedEOF) instead of going unchecked.
func readFile(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil || !strings.HasSuffix(path, ".gz") {
		return data, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err == nil {
		data, err = readAll(zr)
	}
	if err != nil {
		return nil, fmt.Errorf("gunzip %s: %w", path, err)
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
