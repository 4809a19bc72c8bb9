// Package artifact is the wire format of the stage cache: a sealed,
// versioned, content-addressed container for serialized pipeline
// stage artifacts, plus the per-stage codec registry that turns live
// Go structs into payload bytes and back bit-identically.
//
// The container is a fixed little-endian header, an FNV-64a payload
// checksum, and validation before any payload byte is interpreted, so
// the disk spill tier and the peer cache-fill protocol share one
// self-describing format:
//
//	offset size  field
//	0      4     magic "OBDA"
//	4      4     format version (u32, currently 1)
//	8      8     payload length (u64)
//	16     8     FNV-64a checksum of the payload (u64)
//	24     16    stage kind, NUL-padded ASCII
//	40     32    canonical fingerprint key (fp16 hex)
//	72     8     reserved, must be zero
//	80     —     payload (stage-specific, see the codec registry)
//
// Every rejection path has a typed sentinel error so callers can
// distinguish "truncated" from "corrupt" from "wrong artifact" — a
// corrupt disk file is deleted and rebuilt, while a version from the
// future means a newer node wrote the directory and the file must be
// left alone.
package artifact

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
)

const (
	// Magic identifies a sealed artifact file ("OBD Artifact").
	Magic = "OBDA"
	// Version is the current container format version.
	Version = 1

	headerSize = 80
	stageSize  = 16
	// KeySize is the canonical fingerprint length (fp16: 16 bytes of
	// sha256, hex-encoded).
	KeySize = 32

	offMagic    = 0
	offVersion  = 4
	offLen      = 8
	offChecksum = 16
	offStage    = 24
	offKey      = 40
	offReserved = 72
)

// Typed rejection errors, one per hostility class. All are wrapped
// with context by Open/Seal; test with errors.Is.
var (
	// ErrTruncated: the data is shorter than the header or the
	// declared payload length.
	ErrTruncated = errors.New("artifact: truncated")
	// ErrMagic: the data does not start with "OBDA".
	ErrMagic = errors.New("artifact: bad magic")
	// ErrVersion: the container was written by a future format
	// version this build cannot interpret.
	ErrVersion = errors.New("artifact: unsupported version")
	// ErrChecksum: the payload does not match its recorded FNV-64a
	// checksum.
	ErrChecksum = errors.New("artifact: checksum mismatch")
	// ErrStage: the container holds a different stage kind than the
	// caller asked for.
	ErrStage = errors.New("artifact: stage kind mismatch")
	// ErrKey: the container holds a different fingerprint key than
	// the caller asked for.
	ErrKey = errors.New("artifact: fingerprint key mismatch")
	// ErrEmpty: the container declares a zero-length payload; no
	// stage artifact serializes to nothing, so an empty payload is
	// corruption, not a value.
	ErrEmpty = errors.New("artifact: empty payload")
	// ErrBadName: Seal was handed a stage or key that does not fit
	// the fixed header fields.
	ErrBadName = errors.New("artifact: invalid stage or key")
	// ErrHeader: the header holds a stage field or reserved bytes
	// Seal never writes (an empty stage, a NUL inside it, non-zero
	// reserved bytes), so the container is not the one sealed form of
	// its artifact.
	ErrHeader = errors.New("artifact: malformed header")
)

// Seal wraps payload in an OBDA v1 container addressed by
// (stage, key). The stage must be 1–16 ASCII bytes, the key exactly
// KeySize bytes (the canonical fp16 hex fingerprint), and the payload
// non-empty.
func Seal(stage, key string, payload []byte) ([]byte, error) {
	if len(stage) == 0 || len(stage) > stageSize || strings.IndexByte(stage, 0) >= 0 {
		return nil, fmt.Errorf("%w: stage %q", ErrBadName, stage)
	}
	if len(key) != KeySize {
		return nil, fmt.Errorf("%w: key %q", ErrBadName, key)
	}
	if len(payload) == 0 {
		return nil, fmt.Errorf("%w: stage %s key %s", ErrEmpty, stage, key)
	}
	out := make([]byte, headerSize+len(payload))
	copy(out[offMagic:], Magic)
	binary.LittleEndian.PutUint32(out[offVersion:], Version)
	binary.LittleEndian.PutUint64(out[offLen:], uint64(len(payload)))
	binary.LittleEndian.PutUint64(out[offChecksum:], checksum(payload))
	copy(out[offStage:], stage)
	copy(out[offKey:], key)
	copy(out[headerSize:], payload)
	return out, nil
}

// Open validates a sealed container and returns its payload. The
// expected stage and key are part of the contract: a valid container
// holding a different artifact is rejected (ErrStage / ErrKey), so a
// renamed or cross-filled file can never be decoded as the wrong
// stage. The returned slice aliases data.
func Open(data []byte, stage, key string) ([]byte, error) {
	hdrStage, hdrKey, payload, err := open(data)
	if err != nil {
		return nil, err
	}
	if hdrStage != stage {
		return nil, fmt.Errorf("%w: have %q, want %q", ErrStage, hdrStage, stage)
	}
	if hdrKey != key {
		return nil, fmt.Errorf("%w: have %q, want %q", ErrKey, hdrKey, key)
	}
	return payload, nil
}

// open runs the full validation ladder. Order matters for error
// typing: structure first (truncation, magic, version), then identity
// (stage field well-formed), then integrity (length, checksum).
func open(data []byte) (stage, key string, payload []byte, err error) {
	if len(data) < headerSize {
		return "", "", nil, fmt.Errorf("%w: %d bytes < %d-byte header", ErrTruncated, len(data), headerSize)
	}
	if string(data[offMagic:offMagic+4]) != Magic {
		return "", "", nil, fmt.Errorf("%w: %q", ErrMagic, data[offMagic:offMagic+4])
	}
	if v := binary.LittleEndian.Uint32(data[offVersion:]); v != Version {
		return "", "", nil, fmt.Errorf("%w: version %d, this build reads %d", ErrVersion, v, Version)
	}
	stage = strings.TrimRight(string(data[offStage:offStage+stageSize]), "\x00")
	key = string(data[offKey : offKey+KeySize])
	if stage == "" || strings.IndexByte(stage, 0) >= 0 || binary.LittleEndian.Uint64(data[offReserved:]) != 0 {
		return "", "", nil, fmt.Errorf("%w: stage field %q, reserved %x", ErrHeader, data[offStage:offStage+stageSize], data[offReserved:headerSize])
	}
	n := binary.LittleEndian.Uint64(data[offLen:])
	if n == 0 {
		return "", "", nil, fmt.Errorf("%w: stage %s key %s", ErrEmpty, stage, key)
	}
	if uint64(len(data)-headerSize) != n {
		return "", "", nil, fmt.Errorf("%w: header declares %d payload bytes, have %d", ErrTruncated, n, len(data)-headerSize)
	}
	payload = data[headerSize:]
	if got, want := checksum(payload), binary.LittleEndian.Uint64(data[offChecksum:]); got != want {
		return "", "", nil, fmt.Errorf("%w: computed %016x, recorded %016x", ErrChecksum, got, want)
	}
	return stage, key, payload, nil
}

// checksum is FNV-64a over the payload: fast, dependency-free, and
// strong enough to catch torn writes and bit rot (crypto integrity is
// not the threat model — peers are trusted; the fingerprint key is the
// content address).
func checksum(p []byte) uint64 {
	h := fnv.New64a()
	h.Write(p)
	return h.Sum64()
}

// FileName returns the canonical disk-tier file name for an artifact.
func FileName(stage, key string) string {
	return stage + "-" + key + ".obda"
}

// ParseFileName inverts FileName; ok is false for foreign files (the
// sweep skips them rather than erroring on temp files or stray junk).
func ParseFileName(name string) (stage, key string, ok bool) {
	base, found := strings.CutSuffix(name, ".obda")
	if !found {
		return "", "", false
	}
	i := strings.IndexByte(base, '-')
	if i <= 0 || len(base)-i-1 != KeySize {
		return "", "", false
	}
	return base[:i], base[i+1:], true
}

// WriteFile persists a sealed container under dir with the temp-file +
// rename discipline: a reader never observes a partially written
// artifact, and a crash leaves at worst
// an ignorable .obda-tmp-* file.
func WriteFile(dir, stage, key string, sealed []byte) error {
	f, err := os.CreateTemp(dir, ".obda-tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(sealed); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, FileName(stage, key))); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
