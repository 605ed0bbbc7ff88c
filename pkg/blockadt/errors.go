package blockadt

import (
	"errors"
	"fmt"
	"strings"
)

// ErrUnknownName is the sentinel every failed registry lookup matches:
// errors.Is(err, blockadt.ErrUnknownName) is true for any Lookup* miss
// (system, oracle, selector, link, adversary, metric — and the hypothesis
// experiment registry), regardless of which registry produced it.
var ErrUnknownName = errors.New("blockadt: unknown name")

// UnknownNameError is the typed failure of a registry lookup: the kind of
// registry consulted, the name that missed, and the registered
// alternatives at lookup time. Callers branch on it with errors.As to
// build structured responses (the serve 400 body) instead of parsing the
// message; the message itself is stable and carries the same guidance it
// always did.
type UnknownNameError struct {
	// Kind is the registry's singular kind: "system", "oracle",
	// "selector", "link", "adversary", "topology", "metric" or
	// "experiment".
	Kind string
	// Name is the key that was looked up.
	Name string
	// Registered lists the names that were registered, in registration
	// order.
	Registered []string
}

// Error renders the historical lookup-failure message byte for byte:
// `blockadt: unknown <kind> "<name>" (registered: a, b, c)`.
func (e *UnknownNameError) Error() string {
	return fmt.Sprintf("blockadt: unknown %s %q (registered: %s)",
		e.Kind, e.Name, strings.Join(e.Registered, ", "))
}

// Is matches the ErrUnknownName sentinel, so errors.Is works without
// callers knowing the concrete type.
func (e *UnknownNameError) Is(target error) bool { return target == ErrUnknownName }

// ScenarioPanicError reports a sweep scenario whose execution panicked,
// e.g. a simulator safety cap or a faulty registered plan. The sweep
// engine recovers the panic on the worker that ran the scenario and fails
// the sweep with this error, so Run and Stream return it instead of the
// panic taking the process down.
type ScenarioPanicError struct {
	// Key is the panicking scenario's canonical key (Scenario.Key).
	Key string
	// Value is the value the scenario panicked with.
	Value any
	// Stack is the panicking goroutine's stack trace, which the recovered
	// panic would otherwise have printed.
	Stack []byte
}

// Error names the scenario and the panic value.
func (e *ScenarioPanicError) Error() string {
	return fmt.Sprintf("blockadt: scenario %s panicked: %v", e.Key, e.Value)
}
