// Package artifact is the wire format of the stage cache: a sealed,
// versioned, content-addressed container for serialized pipeline
// stage artifacts, plus the per-stage codec registry that turns live
// Go structs into payload bytes and back bit-identically.
//
// The container is a fixed little-endian header, a CRC-32C payload
// checksum, and validation before any payload byte is interpreted, so
// the disk spill tier and the peer cache-fill protocol share one
// self-describing format:
//
//	offset size  field
//	0      4     magic "OBDA"
//	4      4     format version (u32, currently 2)
//	8      8     payload length (u64)
//	16     8     CRC-32C (Castagnoli) of the payload in the low 32
//	             bits; the high 32 bits must be zero
//	24     16    stage kind, NUL-padded ASCII
//	40     32    canonical fingerprint key (fp16 hex)
//	72     8     reserved, must be zero
//	80     —     payload (stage-specific, see the codec registry)
//
// CRC-32C detects every error burst of up to 32 bits, any single-bit
// flip included, and runs in hardware on amd64 and arm64. Version 1
// containers carried an FNV-64a checksum in the same field and are
// otherwise identical.
//
// Every rejection path has a typed sentinel error so callers can
// distinguish "truncated" from "corrupt" from "wrong artifact" — a
// corrupt disk file is deleted and rebuilt, and so is one an older
// format version wrote (ErrOldVersion), while a version from the
// future (ErrVersion) means a newer node wrote the directory and the
// file must be left alone.
package artifact

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
)

const (
	// Magic identifies a sealed artifact file ("OBD Artifact").
	Magic = "OBDA"
	// Version is the current container format version.
	Version = 2

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
	// ErrOldVersion: the container was written by an older format
	// version, whose checksum this build does not verify; it is
	// rebuilt like a corrupt one.
	ErrOldVersion = errors.New("artifact: old version")
	// ErrChecksum: the payload does not match its recorded CRC-32C
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
	// ErrHeader: the header holds a stage field, checksum bits or
	// reserved bytes Seal never writes (an empty stage, a NUL inside
	// it, non-zero high checksum bits or reserved bytes), so the
	// container is not the one sealed form of its artifact.
	ErrHeader = errors.New("artifact: malformed header")
)

// Seal wraps payload in an OBDA v2 container addressed by
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
	binary.LittleEndian.PutUint64(out[offChecksum:], uint64(checksum(payload)))
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
	switch v := binary.LittleEndian.Uint32(data[offVersion:]); {
	case v > Version:
		return "", "", nil, fmt.Errorf("%w: version %d, this build reads %d", ErrVersion, v, Version)
	case v < Version:
		return "", "", nil, fmt.Errorf("%w: version %d, this build reads %d", ErrOldVersion, v, Version)
	}
	stage = strings.TrimRight(string(data[offStage:offStage+stageSize]), "\x00")
	key = string(data[offKey : offKey+KeySize])
	sum := binary.LittleEndian.Uint64(data[offChecksum:])
	if stage == "" || strings.IndexByte(stage, 0) >= 0 || sum>>32 != 0 || binary.LittleEndian.Uint64(data[offReserved:]) != 0 {
		return "", "", nil, fmt.Errorf("%w: stage field %q, checksum %016x, reserved %x", ErrHeader, data[offStage:offStage+stageSize], sum, data[offReserved:headerSize])
	}
	n := binary.LittleEndian.Uint64(data[offLen:])
	if n == 0 {
		return "", "", nil, fmt.Errorf("%w: stage %s key %s", ErrEmpty, stage, key)
	}
	if uint64(len(data)-headerSize) != n {
		return "", "", nil, fmt.Errorf("%w: header declares %d payload bytes, have %d", ErrTruncated, n, len(data)-headerSize)
	}
	payload = data[headerSize:]
	if got := checksum(payload); uint64(got) != sum {
		return "", "", nil, fmt.Errorf("%w: computed %08x, recorded %08x", ErrChecksum, got, sum)
	}
	return stage, key, payload, nil
}

// castagnoli is the CRC-32C table; crc32 uses the CPU's CRC32
// instructions for it where they exist.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum is CRC-32C over the payload: hardware-fast, in the standard
// library, and guaranteed to catch every burst of up to 32 flipped
// bits, which covers torn writes and bit rot (crypto integrity is not
// the threat model — peers are trusted; the fingerprint key is the
// content address).
func checksum(p []byte) uint32 {
	return crc32.Checksum(p, castagnoli)
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
