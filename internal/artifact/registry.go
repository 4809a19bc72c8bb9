package artifact

import (
	"fmt"
	"sync"
)

// Codec serializes one stage's artifact type. Encode receives the
// live artifact (the concrete pointer type the stage caches) and
// returns payload bytes; Decode inverts it, returning the same
// concrete type. Both directions must be bit-identical: DeepEqual of
// value and Decode(Encode(value)) is gated by tests for every
// registered stage.
type Codec struct {
	Encode func(v any) ([]byte, error)
	Decode func(payload []byte) (any, error)
}

var (
	regMu    sync.RWMutex
	registry = map[string]Codec{}
)

// Register installs the codec of a stage whose artifact type is T.
// Stages register from the package that owns the artifact type (the
// root obdrel package, at init), which is what lets unexported
// artifact types participate. enc writes T's fields; dec reads them
// back and may reject what it read. Register owns the rest: the type
// assertion on encode, the Writer and the Reader, and the Close that
// rejects trailing bytes. A decode that fails anywhere returns an
// untyped nil artifact, and the reader's error (a failed read or
// trailing bytes) wins over dec's own.
// Double registration is a programming error and panics.
func Register[T any](stage string, enc func(*Writer, T), dec func(*Reader) (T, error)) {
	if enc == nil || dec == nil {
		panic("artifact: Register " + stage + ": nil codec func")
	}
	c := Codec{
		Encode: func(v any) ([]byte, error) {
			t, ok := v.(T)
			if !ok {
				return nil, fmt.Errorf("artifact: %s codec: artifact is %T", stage, v)
			}
			var w Writer
			enc(&w, t)
			return w.Bytes(), nil
		},
		Decode: func(p []byte) (any, error) {
			r := NewReader(p)
			v, err := dec(r)
			if cerr := r.Close(); cerr != nil {
				return nil, cerr
			}
			if err != nil {
				return nil, err
			}
			return v, nil
		},
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[stage]; dup {
		panic("artifact: duplicate codec for stage " + stage)
	}
	registry[stage] = c
}

// Lookup returns the stage's codec. Stages without a codec are simply
// not serializable — the tier machinery skips disk and peer for them
// and they behave exactly as before this format existed.
func Lookup(stage string) (Codec, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	c, ok := registry[stage]
	return c, ok
}

// Encode serializes a live artifact into a sealed container.
func Encode(stage, key string, v any) ([]byte, error) {
	c, ok := Lookup(stage)
	if !ok {
		return nil, fmt.Errorf("artifact: no codec for stage %s", stage)
	}
	payload, err := c.Encode(v)
	if err != nil {
		return nil, fmt.Errorf("artifact: encode %s %s: %w", stage, key, err)
	}
	return Seal(stage, key, payload)
}

// Decode opens a sealed container addressed by (stage, key) and
// deserializes its payload into the stage's live artifact type.
func Decode(stage, key string, sealed []byte) (any, error) {
	c, ok := Lookup(stage)
	if !ok {
		return nil, fmt.Errorf("artifact: no codec for stage %s", stage)
	}
	payload, err := Open(sealed, stage, key)
	if err != nil {
		return nil, err
	}
	v, err := c.Decode(payload)
	if err != nil {
		return nil, fmt.Errorf("artifact: decode %s %s: %w", stage, key, err)
	}
	return v, nil
}
