package artifact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

const testKey = "0123456789abcdef0123456789abcdef"

func sealOrDie(t *testing.T, stage, key string, payload []byte) []byte {
	t.Helper()
	sealed, err := Seal(stage, key, payload)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	return sealed
}

func TestSealOpenRoundTrip(t *testing.T) {
	payload := []byte("the artifact payload \x00 with binary \xff bytes")
	sealed := sealOrDie(t, "thermal", testKey, payload)
	got, err := Open(sealed, "thermal", testKey)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if string(got) != string(payload) {
		t.Fatalf("payload mismatch: %q != %q", got, payload)
	}
}

// openCase is one hostile container: Open(data, stage, key) must fail
// with errors.Is(err, wantIs).
type openCase struct {
	name   string
	data   []byte
	stage  string
	key    string
	wantIs error
}

// openHostilityCases covers every rejection class: truncated payload,
// flipped checksum byte, wrong stage kind, future version, zero-length
// payload, and header fields Seal never writes. base is the valid
// container they are cut from.
func openHostilityCases(t testing.TB) (base []byte, cases []openCase) {
	base, err := Seal("pca", testKey, []byte("0123456789abcdef0123456789"))
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	cp := func() []byte { return append([]byte(nil), base...) }
	return base, []openCase{
		{"empty input", nil, "pca", testKey, ErrTruncated},
		{"header only half", base[:headerSize/2], "pca", testKey, ErrTruncated},
		{"truncated payload", base[:len(base)-5], "pca", testKey, ErrTruncated},
		{"extra trailing bytes", append(cp(), 0xAB), "pca", testKey, ErrTruncated},
		{"bad magic", func() []byte { d := cp(); d[0] = 'X'; return d }(), "pca", testKey, ErrMagic},
		{"future version", func() []byte {
			d := cp()
			binary.LittleEndian.PutUint32(d[offVersion:], Version+7)
			return d
		}(), "pca", testKey, ErrVersion},
		{"flipped checksum byte", func() []byte {
			d := cp()
			d[offChecksum+3] ^= 0x40
			return d
		}(), "pca", testKey, ErrChecksum},
		{"flipped payload byte", func() []byte {
			d := cp()
			d[headerSize+2] ^= 0x01
			return d
		}(), "pca", testKey, ErrChecksum},
		{"wrong stage kind", cp(), "thermal", testKey, ErrStage},
		{"wrong key", cp(), "pca", strings.Repeat("f", KeySize), ErrKey},
		{"zero-length payload", func() []byte {
			// Hand-build a container declaring zero payload bytes:
			// Seal refuses to create one, so forge the header.
			d := cp()[:headerSize]
			binary.LittleEndian.PutUint64(d[offLen:], 0)
			return d
		}(), "pca", testKey, ErrEmpty},
		{"nonzero reserved byte", func() []byte { d := cp(); d[offReserved+7] = '0'; return d }(), "pca", testKey, ErrHeader},
		{"NUL inside stage", func() []byte { d := cp(); d[offStage+4] = 'x'; return d }(), "pca\x00x", testKey, ErrHeader},
		{"empty stage", func() []byte { d := cp(); copy(d[offStage:], "\x00\x00\x00"); return d }(), "", testKey, ErrHeader},
	}
}

// TestOpenHostility: each hostile container must fail with its typed
// error and must not panic.
func TestOpenHostility(t *testing.T) {
	_, cases := openHostilityCases(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Open(tc.data, tc.stage, tc.key)
			if err == nil {
				t.Fatalf("Open accepted hostile input")
			}
			if !errors.Is(err, tc.wantIs) {
				t.Fatalf("Open err = %v, want errors.Is(%v)", err, tc.wantIs)
			}
		})
	}
}

// FuzzOpen feeds Open the containers and expected (stage, key) pairs a
// disk file or a peer could hand it, seeded with a valid container and
// every TestOpenHostility case. Open must never panic, a rejection
// must be one of the typed sentinels callers branch on, and an
// accepted container must be exactly what Seal writes for its stage,
// key and payload, so one artifact has one sealed form.
func FuzzOpen(f *testing.F) {
	base, cases := openHostilityCases(f)
	f.Add(base, "pca", testKey)
	for _, tc := range cases {
		f.Add(tc.data, tc.stage, tc.key)
	}
	sentinels := []error{ErrTruncated, ErrMagic, ErrVersion, ErrHeader, ErrChecksum, ErrStage, ErrKey, ErrEmpty}
	f.Fuzz(func(t *testing.T, data []byte, stage, key string) {
		payload, err := Open(data, stage, key)
		if err != nil {
			if payload != nil {
				t.Fatalf("rejected container (%v) returned a payload", err)
			}
			if !slices.ContainsFunc(sentinels, func(s error) bool { return errors.Is(err, s) }) {
				t.Fatalf("rejection %v is none of the typed sentinels", err)
			}
			return
		}
		again, err := Seal(stage, key, payload)
		if err != nil {
			t.Fatalf("accepted container does not re-seal: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("re-sealing an accepted container gave different bytes:\n%q\n%q", again, data)
		}
	})
}

func TestSealRejectsBadInputs(t *testing.T) {
	if _, err := Seal("", testKey, []byte("x")); !errors.Is(err, ErrBadName) {
		t.Fatalf("empty stage: %v", err)
	}
	if _, err := Seal("averyverylongstagename", testKey, []byte("x")); !errors.Is(err, ErrBadName) {
		t.Fatalf("long stage: %v", err)
	}
	if _, err := Seal("pca", "shortkey", []byte("x")); !errors.Is(err, ErrBadName) {
		t.Fatalf("short key: %v", err)
	}
	if _, err := Seal("pca", testKey, nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty payload: %v", err)
	}
}

func TestFileNameRoundTrip(t *testing.T) {
	name := FileName("covariance", testKey)
	stage, key, ok := ParseFileName(name)
	if !ok || stage != "covariance" || key != testKey {
		t.Fatalf("ParseFileName(%q) = %q %q %v", name, stage, key, ok)
	}
	for _, bad := range []string{
		"", "x.obda", "noext-" + testKey, "-" + testKey + ".obda",
		"stage-shortkey.obda", ".obda-tmp-12345",
	} {
		if _, _, ok := ParseFileName(bad); ok {
			t.Fatalf("ParseFileName accepted %q", bad)
		}
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	sealed := sealOrDie(t, "blod", testKey, []byte("payload"))
	if err := WriteFile(dir, "blod", testKey, sealed); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, FileName("blod", testKey)))
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if _, err := Open(data, "blod", testKey); err != nil {
		t.Fatalf("Open written file: %v", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("dir has %d entries (want 1, no temp leftovers): %v", len(ents), err)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	var w Writer
	w.U64(0)
	w.U64(math.MaxUint64)
	w.Int(-42)
	w.Int(123456)
	w.F64(math.Copysign(0, -1)) // negative zero survives
	w.F64(math.Inf(-1))
	w.F64(1.0000000000000002)
	w.Bool(true)
	w.Bool(false)
	w.String("")
	w.String("héllo\x00world")
	w.F64s(nil)
	w.F64s([]float64{})
	w.F64s([]float64{3.14, -2.5e-300})
	w.Ints([]int{-1, 0, 7})

	r := NewReader(w.Bytes())
	if v := r.U64(); v != 0 {
		t.Fatalf("u64 = %d", v)
	}
	if v := r.U64(); v != math.MaxUint64 {
		t.Fatalf("u64 max = %d", v)
	}
	if v := r.I64(); v != -42 {
		t.Fatalf("i64 = %d", v)
	}
	if v := r.Int(); v != 123456 {
		t.Fatalf("int = %d", v)
	}
	if v := r.F64(); math.Float64bits(v) != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatalf("negative zero lost: %v", v)
	}
	if v := r.F64(); !math.IsInf(v, -1) {
		t.Fatalf("-inf lost: %v", v)
	}
	if v := r.F64(); v != 1.0000000000000002 {
		t.Fatalf("ulp float = %v", v)
	}
	if !r.Bool() || r.Bool() {
		t.Fatalf("bools mangled")
	}
	if v := r.String(); v != "" {
		t.Fatalf("empty string = %q", v)
	}
	if v := r.String(); v != "héllo\x00world" {
		t.Fatalf("string = %q", v)
	}
	if v := r.F64s(); v != nil {
		t.Fatalf("nil slice = %v", v)
	}
	if v := r.F64s(); v == nil || len(v) != 0 {
		t.Fatalf("empty slice = %v", v)
	}
	if v := r.F64s(); !reflect.DeepEqual(v, []float64{3.14, -2.5e-300}) {
		t.Fatalf("f64s = %v", v)
	}
	if v := r.Ints(); !reflect.DeepEqual(v, []int{-1, 0, 7}) {
		t.Fatalf("ints = %v", v)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestReaderHostility: corrupt payloads poison the reader with an
// error instead of panicking or allocating absurd slices.
func TestReaderHostility(t *testing.T) {
	t.Run("truncated", func(t *testing.T) {
		r := NewReader([]byte{1, 2, 3})
		_ = r.U64()
		if r.Err() == nil {
			t.Fatal("no error on short read")
		}
	})
	t.Run("huge slice length", func(t *testing.T) {
		var w Writer
		w.Bool(true)
		w.U64(1 << 60) // declared length vastly exceeds payload
		r := NewReader(w.Bytes())
		if v := r.F64s(); v != nil || r.Err() == nil {
			t.Fatalf("hostile length accepted: %v %v", v, r.Err())
		}
	})
	t.Run("bad bool", func(t *testing.T) {
		r := NewReader([]byte{7})
		_ = r.Bool()
		if r.Err() == nil {
			t.Fatal("bool byte 7 accepted")
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		var w Writer
		w.U64(1)
		r := NewReader(append(w.Bytes(), 0xFF))
		_ = r.U64()
		if err := r.Close(); err == nil {
			t.Fatal("trailing bytes accepted")
		}
	})
	t.Run("sticky", func(t *testing.T) {
		r := NewReader(nil)
		_ = r.U64()
		first := r.Err()
		_ = r.F64()
		_ = r.String()
		if r.Err() != first {
			t.Fatalf("error not sticky: %v then %v", first, r.Err())
		}
	})
}

func TestRegistry(t *testing.T) {
	// The decoder rejects negative values, so a well-formed payload can
	// still fail decode.
	Register("test-reg-stage", func(w *Writer, v *int) { w.Int(*v) }, func(r *Reader) (*int, error) {
		v := r.Int()
		if v < 0 {
			return &v, errors.New("negative")
		}
		return &v, nil
	})
	in := 99
	sealed, err := Encode("test-reg-stage", testKey, &in)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	v, err := Decode("test-reg-stage", testKey, sealed)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if *v.(*int) != 99 {
		t.Fatalf("round trip = %v", v)
	}
	if _, err := Encode("test-reg-stage", testKey, 99); err == nil {
		t.Fatal("Encode of the wrong artifact type succeeded")
	}
	// Every rejection returns an untyped nil artifact: the decoder's own
	// error, a failed read and trailing bytes alike.
	codec, _ := Lookup("test-reg-stage")
	var neg, short Writer
	neg.Int(-1)
	short.Bool(true)
	for name, p := range map[string][]byte{
		"decoder error": neg.Bytes(),
		"failed read":   short.Bytes(),
		"trailing byte": append(sealed[headerSize:], 0),
	} {
		if v, err := codec.Decode(p); err == nil || v != nil {
			t.Errorf("%s: decode = (%#v, %v), want an error and an untyped nil", name, v, err)
		}
	}
	if _, err := Encode("no-such-stage", testKey, 1); err == nil {
		t.Fatal("Encode without codec succeeded")
	}
	if _, ok := Lookup("no-such-stage"); ok {
		t.Fatal("Lookup invented a codec")
	}
	if _, ok := Lookup("test-reg-stage"); !ok {
		t.Fatal("Lookup missing test-reg-stage")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register("test-reg-stage", func(*Writer, int) {}, func(*Reader) (int, error) { return 0, nil })
}
