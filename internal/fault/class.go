// Package fault is the reliability toolkit the serving stack uses on
// itself: a typed error taxonomy that maps each failure to how a
// caller should react, stage provenance for build failures, and a
// deterministic seedable fault-injection framework whose disarmed
// injection points cost one atomic load and no allocations. Every stage
// build is a pure function of its key, so a real build failure is
// Permanent: it fails the same way on every attempt. Transient is the
// class of an injected error rule, which exercises the paths a
// retryable failure would take; the server maps it to 503.
package fault

import (
	"context"
	"errors"
	"fmt"
)

// Class partitions failures by how callers should react to them.
type Class int

const (
	// Permanent failures are deterministic for their inputs: the same
	// build yields the same error every time. The default
	// classification, and the class of every real build failure.
	Permanent Class = iota
	// Transient failures may heal if the client asks again. Only an
	// injected error rule ("point:error") produces one; the server
	// answers it 503 with Retry-After.
	Transient
	// Cancelled failures are the caller's own context dying; a build
	// that dies of one is never cached or handed to another waiter.
	Cancelled
)

func (c Class) String() string {
	switch c {
	case Transient:
		return "transient"
	case Cancelled:
		return "cancelled"
	default:
		return "permanent"
	}
}

// classer is the interface an error implements to declare its class.
type classer interface{ FaultClass() Class }

// ClassOf classifies an error: context errors are Cancelled, errors
// declaring a class (injected faults, Class.Wrap) keep it, everything
// else — including nil — is Permanent.
func ClassOf(err error) Class {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return Cancelled
	}
	var fc classer
	if errors.As(err, &fc) {
		return fc.FaultClass()
	}
	return Permanent
}

// classified carries an explicit class on an arbitrary error.
type classified struct {
	err   error
	class Class
}

func (e *classified) Error() string     { return e.err.Error() }
func (e *classified) Unwrap() error     { return e.err }
func (e *classified) FaultClass() Class { return e.class }

// Wrap marks err with the class; errors.Is/As still see err.
func (c Class) Wrap(err error) error {
	if err == nil {
		return nil
	}
	return &classified{err: err, class: c}
}

// StageError records where in the pipeline a failure happened: the
// stage name and the artifact fingerprint whose build failed. It
// classifies as its cause does, so the server's error mapping sees
// through the provenance wrapper.
type StageError struct {
	Stage       string
	Fingerprint string
	Err         error
}

func (e *StageError) Error() string {
	return fmt.Sprintf("stage %s [%s]: %v", e.Stage, e.Fingerprint, e.Err)
}
func (e *StageError) Unwrap() error     { return e.Err }
func (e *StageError) FaultClass() Class { return ClassOf(e.Err) }
