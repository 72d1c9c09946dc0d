package trace

// Fleet campaign checkpoints: the durable record that lets a multi-year
// fleet campaign survive a kill and restart bit-identically. The unit of
// resumable progress is the completed cluster — a cluster campaign's
// Result is a pure function of (Config, Mix, seed), so anything
// in-flight at the kill is simply re-run from its own day 0 on resume
// and lands on the same bits.
//
// A checkpoint is an append-only journal, the way RS2HPM's PBS epilogue
// appended each finished job's counters to a file: a header record, then
// one segment per completed cluster, appended and fsynced as the cluster
// completes. A completion costs one cluster's encode, never a rewrite of
// the clusters before it.
//
//   - The header is one JSON line: the format name, the version, FleetID
//     and the cluster count.
//   - A segment is a frame — the cluster index (4 bytes) and the payload
//     length (8 bytes), the CRC-32 of those 12 bytes, then the payload's
//     CRC-32, all big-endian — followed by the payload: exactly the bytes
//     Write emits for the cluster's Result, so the one-pass database
//     reader decodes it. The frame's own CRC means a damaged cluster
//     index or length is never trusted.
//   - With a ".gz" path each record is a gzip member of its own, so the
//     file stays one valid multi-member gzip stream.
//
// A kill can tear only the last append, and only by cutting it short. A
// final record that is short, fails its payload CRC or is a cut gzip
// member is dropped, and its cluster re-runs from day 0; a resume cuts
// the file back to the last good record before appending. Any other
// damage is ErrCorrupt — including a whole frame that fails its own CRC,
// since a cut leaves a frame either short or intact — and another format
// version is ErrVersion.
//
// A checkpoint is bound to the fleet that wrote it by FleetID — resuming
// against a different fleet definition is an error, not a silent wrong
// answer. The shard count is not part of the fleet definition, so a
// resume may use any shard count.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strings"
	"sync"

	"repro/internal/workload"
)

// FleetCheckpointVersion guards against reading incompatible checkpoint
// files. It must change whenever the file layout changes, or the
// simulator's behaviour changes in a way that alters any campaign result
// — resuming from a stale checkpoint would otherwise silently mix old and
// new bits in one merged Result.
const FleetCheckpointVersion = 2

// checkpointFormat names the format in the journal header.
const checkpointFormat = "hpm-fleet-checkpoint"

// frameLen is the size of a segment's frame: cluster, length, the
// CRC-32 of those two, and the payload's CRC-32.
const frameLen = 4 + 8 + 4 + 4

// Decode failures classify into two families, matchable with errors.Is.
var (
	// ErrVersion: the file is from an incompatible format version.
	ErrVersion = errors.New("trace: unsupported format version")
	// ErrCorrupt: the bytes are not a sound file — damaged where no crash
	// can tear them, or internally inconsistent.
	ErrCorrupt = errors.New("trace: corrupt file")
)

// errTorn marks a record cut short or failing its checksum: a torn
// append when it is the file's last record, damage anywhere else.
var errTorn = errors.New("torn record")

// FleetClusterResult is one completed cluster's campaign reduction.
type FleetClusterResult struct {
	Cluster int
	Result  workload.Result
}

// FleetCheckpoint is a decoded journal: the fleet it is bound to and its
// completed clusters, in the order they were appended.
type FleetCheckpoint struct {
	Version int
	// FleetID binds the checkpoint to a fleet definition:
	// replay.Fingerprint of its members.
	FleetID uint64
	// Clusters is the fleet size the checkpoint was written under.
	Clusters int
	Done     []FleetClusterResult
}

// checkpointHeader is the journal's first record.
type checkpointHeader struct {
	Format   string `json:"format"`
	Version  int    `json:"version"`
	FleetID  uint64 `json:"fleet_id"`
	Clusters int    `json:"clusters"`
}

// headerLine is the header record's bytes, before any compression.
func headerLine(fleetID uint64, clusters int) []byte {
	// A struct of strings and integers always encodes.
	b, _ := json.Marshal(checkpointHeader{checkpointFormat, FleetCheckpointVersion, fleetID, clusters})
	return append(b, '\n')
}

// Journal is a checkpoint open for appending completed clusters. Append
// is safe for concurrent use: callers encode their segments in parallel,
// and only the write and fsync are serialized.
type Journal struct {
	gz bool
	mu sync.Mutex
	f  *os.File   // guarded by mu
	w  syncWriter // fileWriter(f); guarded by mu
	// err is the first failed append. It may have left part of a record
	// at the end of the file, which readers drop only while it is the last
	// record, so every later Append returns err instead. Guarded by mu.
	err error
}

// CreateJournal starts a fresh checkpoint at path for a fleet of the
// given size. The header is written atomically, so an unwritable path
// fails here, and an old file at path is replaced whole.
func CreateJournal(path string, fleetID uint64, clusters int) (*Journal, error) {
	hdr := headerLine(fleetID, clusters)
	if err := writeFile(path, true, func(w io.Writer) error { _, err := w.Write(hdr); return err }); err != nil {
		return nil, err
	}
	return openJournal(path, -1)
}

// OpenJournal loads the checkpoint at path for a resume and opens it for
// further appends. A torn final record is cut off, and the cut fsynced,
// before anything is appended after it.
func OpenJournal(path string) (FleetCheckpoint, *Journal, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return FleetCheckpoint{}, nil, fmt.Errorf("trace: checkpoint: %w", err)
	}
	cp, end, err := decodeCheckpoint(data, strings.HasSuffix(path, ".gz"))
	if err != nil {
		return FleetCheckpoint{}, nil, err
	}
	cut := int64(-1)
	if end < len(data) {
		cut = int64(end)
	}
	j, err := openJournal(path, cut)
	if err != nil {
		return FleetCheckpoint{}, nil, err
	}
	return cp, j, nil
}

// openJournal opens the journal at path for appending. A non-negative cut
// is where its intact records end: the file is truncated there, and the
// cut fsynced, first.
func openJournal(path string, cut int64) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	w := fileWriter(f)
	if cut >= 0 {
		err = f.Truncate(cut)
		if err == nil {
			err = w.Sync()
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("trace: checkpoint: dropping torn tail: %w", err)
		}
	}
	return &Journal{gz: strings.HasSuffix(path, ".gz"), f: f, w: w}, nil
}

// Append records a completed cluster: it encodes the cluster's segment,
// then appends it and fsyncs the file.
func (j *Journal) Append(cluster int, res workload.Result) error {
	rec, err := encodeSegment(cluster, res, j.gz)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if _, err := j.w.Write(rec); err != nil {
		j.err = fmt.Errorf("trace: checkpoint append: %w", err)
	} else if err := j.w.Sync(); err != nil {
		j.err = fmt.Errorf("trace: checkpoint append: %w", err)
	}
	return j.err
}

// Close closes the journal's file. Every append was fsynced when it was
// made.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// encodeSegment returns a completed cluster's record: the frame, then
// Write's bytes for res, compressed into a gzip member of its own when
// gz.
func encodeSegment(cluster int, res workload.Result, gz bool) ([]byte, error) {
	var rec bytes.Buffer
	rec.Write(make([]byte, frameLen)) // the frame, filled in below
	if err := Write(&rec, res); err != nil {
		return nil, err
	}
	b := rec.Bytes()
	putFrame(b, uint32(cluster))
	if !gz {
		return b, nil
	}
	var z bytes.Buffer
	err := encodeTo(&z, true, func(w io.Writer) error { _, err := w.Write(b); return err })
	return z.Bytes(), err
}

// ReadFleetCheckpointFile loads the checkpoint at path, dropping a torn
// final record.
func ReadFleetCheckpointFile(path string) (FleetCheckpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return FleetCheckpoint{}, fmt.Errorf("trace: checkpoint: %w", err)
	}
	cp, _, err := decodeCheckpoint(data, strings.HasSuffix(path, ".gz"))
	return cp, err
}

// decodeCheckpoint decodes a journal's bytes, and returns the length of
// its intact records: all of data, or less when a torn final record was
// dropped.
func decodeCheckpoint(data []byte, gz bool) (FleetCheckpoint, int, error) {
	rd := records{data: data, gz: gz}
	rec, off, err := rd.next(0, true)
	if err != nil {
		return FleetCheckpoint{}, 0, fmt.Errorf("%w: checkpoint header: %v", ErrCorrupt, err)
	}
	h, err := parseHeader(rec)
	if err != nil {
		return FleetCheckpoint{}, 0, err
	}
	cp := FleetCheckpoint{Version: h.Version, FleetID: h.FleetID, Clusters: h.Clusters}
	seen := make(map[uint32]bool)
	for off < len(data) {
		rec, end, err := rd.next(off, false)
		var cluster uint32
		var payload []byte
		if err == nil {
			cluster, payload, err = segment(rec)
		}
		if errors.Is(err, errTorn) && end == len(data) {
			if !rd.intactAfter(off) {
				break // a torn last append; its cluster re-runs
			}
			err = errors.New("damaged record before an intact one")
		}
		if err == nil && uint64(cluster) >= uint64(h.Clusters) {
			err = fmt.Errorf("cluster %d out of range [0,%d)", cluster, h.Clusters)
		}
		if err == nil && seen[cluster] {
			err = fmt.Errorf("cluster %d recorded twice", cluster)
		}
		var res workload.Result
		if err == nil {
			res, err = decode(payload)
		}
		if err != nil {
			return FleetCheckpoint{}, 0, fmt.Errorf("%w: checkpoint segment at byte %d: %v", ErrCorrupt, off, err)
		}
		seen[cluster] = true
		cp.Done = append(cp.Done, FleetClusterResult{Cluster: int(cluster), Result: res})
		off = end
	}
	return cp, off, nil
}

// parseHeader checks the header record. The version is probed first, on
// its own, so a file from another version — a version-1 checkpoint, which
// starts {"version":1, — is a version error, not corruption.
func parseHeader(rec []byte) (checkpointHeader, error) {
	var h checkpointHeader
	if bytes.IndexByte(rec, '\n') != len(rec)-1 {
		return h, fmt.Errorf("%w: checkpoint header is not one line", ErrCorrupt)
	}
	var probe struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(rec, &probe); err != nil {
		return h, fmt.Errorf("%w: checkpoint header: %v", ErrCorrupt, err)
	}
	if probe.Version != FleetCheckpointVersion {
		return h, fmt.Errorf("%w: checkpoint version %d, want %d", ErrVersion, probe.Version, FleetCheckpointVersion)
	}
	if err := json.Unmarshal(rec, &h); err != nil || h.Format != checkpointFormat {
		return h, fmt.Errorf("%w: not a %s header", ErrCorrupt, checkpointFormat)
	}
	if h.Clusters < 1 {
		return h, fmt.Errorf("%w: checkpoint fleet size %d, want >= 1", ErrCorrupt, h.Clusters)
	}
	return h, nil
}

// putFrame fills in the frame at the head of a plain segment record for
// the payload that follows it.
func putFrame(rec []byte, cluster uint32) {
	binary.BigEndian.PutUint32(rec, cluster)
	binary.BigEndian.PutUint64(rec[4:], uint64(len(rec)-frameLen))
	binary.BigEndian.PutUint32(rec[12:], crc32.ChecksumIEEE(rec[:12]))
	binary.BigEndian.PutUint32(rec[16:], crc32.ChecksumIEEE(rec[frameLen:]))
}

// frameHead returns a whole frame's cluster and payload length, once the
// frame's CRC over them matches. No crash tears a frame that is on disk
// whole, so a mismatch is damage.
func frameHead(b []byte) (uint32, uint64, error) {
	if crc32.ChecksumIEEE(b[:12]) != binary.BigEndian.Uint32(b[12:]) {
		return 0, 0, errors.New("segment frame fails its CRC")
	}
	return binary.BigEndian.Uint32(b), binary.BigEndian.Uint64(b[4:]), nil
}

// segment splits a segment record into its cluster and payload. A payload
// failing its CRC is errTorn.
func segment(rec []byte) (uint32, []byte, error) {
	if len(rec) < frameLen {
		return 0, nil, fmt.Errorf("segment of %d bytes, shorter than its frame", len(rec))
	}
	cluster, size, err := frameHead(rec)
	if err != nil {
		return 0, nil, err
	}
	payload := rec[frameLen:]
	if size != uint64(len(payload)) {
		return 0, nil, fmt.Errorf("segment frame says %d payload bytes, record holds %d", size, len(payload))
	}
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(rec[16:]) {
		return 0, nil, errTorn
	}
	return cluster, payload, nil
}

// records walks a journal's records.
type records struct {
	data []byte
	gz   bool
	zr   gzip.Reader
	buf  bytes.Buffer
}

// gzipMagic starts every gzip member: ID1, ID2 and CM (deflate).
var gzipMagic = []byte{0x1f, 0x8b, 8}

// intactAfter reports whether a whole, valid segment starts anywhere in
// a gzip journal after off. The record at off reads as cut off by the end
// of the file, but so can a member whose header or deflate stream is
// damaged; an intact segment after it tells the two apart. A plain
// record's length is covered by its frame's CRC, so a plain journal
// never needs the check.
func (r *records) intactAfter(off int) bool {
	if !r.gz {
		return false
	}
	for i := off + 1; ; i++ {
		j := bytes.Index(r.data[i:], gzipMagic)
		if j < 0 {
			return false
		}
		i += j
		if rec, _, err := r.next(i, false); err == nil {
			if _, _, err := segment(rec); err == nil {
				return true
			}
		}
	}
}

// next returns the record at data[off:] — gunzipped when gz, and valid
// until the next call — and the offset just past it. A record cut off by
// the end of data, or whose gzip member fails its checksum, is errTorn.
// A plain segment's length is trusted only once its frame's CRC matches.
func (r *records) next(off int, header bool) ([]byte, int, error) {
	b := r.data[off:]
	if !r.gz {
		n := 0 // the record's length; 0 when it is cut off
		if header {
			n = bytes.IndexByte(b, '\n') + 1
		} else if len(b) >= frameLen {
			_, size, err := frameHead(b)
			if err != nil {
				return nil, off, err
			}
			if size <= uint64(len(b)-frameLen) {
				n = frameLen + int(size)
			}
		}
		if n == 0 {
			return nil, len(r.data), errTorn
		}
		return b[:n], off + n, nil
	}
	// flate reads a bytes.Reader byte by byte, so what is left of br
	// after the member is exactly what follows it.
	br := bytes.NewReader(b)
	err := r.zr.Reset(br)
	if err == nil {
		r.zr.Multistream(false)
		r.buf.Reset()
		_, err = r.buf.ReadFrom(&r.zr)
	}
	end := len(r.data) - br.Len()
	if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, gzip.ErrChecksum) {
		err = errTorn
	}
	if err != nil {
		return nil, end, err
	}
	return r.buf.Bytes(), end, nil
}
