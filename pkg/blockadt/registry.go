package blockadt

import (
	"fmt"
	"strings"
	"sync"
)

// registry is a name-keyed, registration-order-preserving store. Order
// matters: the default scenario matrix expands systems in registration
// order, which for the built-ins is the paper's Table 1 order — keeping
// sweep reports byte-identical across refactors.
type registry[T any] struct {
	kind  string
	mu    sync.RWMutex
	order []string
	byKey map[string]T
}

func newRegistry[T any](kind string) *registry[T] {
	return &registry[T]{kind: kind, byKey: map[string]T{}}
}

// checkName panics on a name no registry accepts: an empty one, or one
// that would break scenario-key injectivity (checkKeyField).
func (r *registry[T]) checkName(name string) {
	if name == "" {
		panic(fmt.Sprintf("blockadt: cannot register a %s with an empty name", r.kind))
	}
	checkKeyField(r.kind, "name", name)
}

// checkKeyField panics on a registered string containing '|', the
// separator Scenario.Key joins its fields with: such a string could make
// two scenarios share one key, one derived seed and one store entry.
func checkKeyField(kind, field, value string) {
	if strings.Contains(value, "|") {
		panic(fmt.Sprintf("blockadt: %s %s %q contains '|', the scenario-key separator", kind, field, value))
	}
}

func (r *registry[T]) register(name string, v T) {
	r.checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byKey[name]; dup {
		panic(fmt.Sprintf("blockadt: %s %q registered twice", r.kind, name))
	}
	r.order = append(r.order, name)
	r.byKey[name] = v
}

func (r *registry[T]) lookup(name string) (T, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	v, ok := r.byKey[name]
	if !ok {
		return v, &UnknownNameError{
			Kind:       r.kind,
			Name:       name,
			Registered: append([]string(nil), r.order...),
		}
	}
	return v, nil
}

// ensure registers name→v unless it is already present (in which case the
// existing registration wins). It exists for idempotent variant
// registration — experiment link variants are derived from their
// parameters, so same name means same spec.
func (r *registry[T]) ensure(name string, v T) {
	r.checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byKey[name]; ok {
		return
	}
	r.order = append(r.order, name)
	r.byKey[name] = v
}

func (r *registry[T]) names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

func (r *registry[T]) all() []T {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]T, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.byKey[name])
	}
	return out
}

// The seven registries backing the façade.
var (
	systemRegistry    = newRegistry[SystemSpec]("system")
	oracleRegistry    = newRegistry[OracleSpec]("oracle")
	selectorRegistry  = newRegistry[SelectorSpec]("selector")
	linkRegistry      = newRegistry[LinkSpec]("link")
	adversaryRegistry = newRegistry[AdversarySpec]("adversary")
	topologyRegistry  = newRegistry[TopologySpec]("topology")
	metricRegistry    = newRegistry[MetricSpec]("metric")
)

// RegistryEntry is one registration as the generic enumeration exposes
// it: the registry key, an optional detail column (the paper's
// refinement for systems, empty elsewhere), and the one-line description.
type RegistryEntry struct {
	Name, Detail, Description string
}

// RegistryInfo describes one registry: its kind (singular), the section
// title `btadt list` prints, and its entries in registration order.
type RegistryInfo struct {
	Kind    string
	Title   string
	Entries []RegistryEntry
}

// registryEnumerators lists every registry in presentation order. New
// registries are added here once; everything that enumerates registries
// generically (`btadt list`, completeness tests) picks them up with no
// per-registry code.
var registryEnumerators = []func() RegistryInfo{
	func() RegistryInfo {
		return enumerate("system", "systems (Table 1 order)", systemRegistry,
			func(s SystemSpec) RegistryEntry {
				return RegistryEntry{Name: s.Name, Detail: s.Refinement, Description: s.Description}
			})
	},
	func() RegistryInfo {
		return enumerate("oracle", "oracles", oracleRegistry,
			func(o OracleSpec) RegistryEntry { return RegistryEntry{Name: o.Name, Description: o.Description} })
	},
	func() RegistryInfo {
		return enumerate("selector", "selectors", selectorRegistry,
			func(s SelectorSpec) RegistryEntry { return RegistryEntry{Name: s.Name, Description: s.Description} })
	},
	func() RegistryInfo {
		info := RegistryInfo{Kind: "link", Title: "links"}
		for _, l := range linkRegistry.all() {
			// Hidden variants (experiment-registered parameterizations)
			// stay resolvable by name but out of the presentation surface.
			if l.Hidden {
				continue
			}
			info.Entries = append(info.Entries, RegistryEntry{Name: l.Name, Detail: l.Params, Description: l.Description})
		}
		return info
	},
	func() RegistryInfo {
		return enumerate("adversary", "adversaries", adversaryRegistry,
			func(a AdversarySpec) RegistryEntry { return RegistryEntry{Name: a.Name, Description: a.Description} })
	},
	func() RegistryInfo {
		info := RegistryInfo{Kind: "topology", Title: "topologies"}
		for _, t := range topologyRegistry.all() {
			if t.Hidden {
				continue
			}
			info.Entries = append(info.Entries, RegistryEntry{Name: t.Name, Detail: t.Params, Description: t.Description})
		}
		return info
	},
	func() RegistryInfo {
		return enumerate("metric", "metrics", metricRegistry,
			func(m MetricSpec) RegistryEntry { return RegistryEntry{Name: m.Name, Description: m.Description} })
	},
}

func enumerate[T any](kind, title string, r *registry[T], entry func(T) RegistryEntry) RegistryInfo {
	info := RegistryInfo{Kind: kind, Title: title}
	for _, v := range r.all() {
		info.Entries = append(info.Entries, entry(v))
	}
	return info
}

// Registries enumerates every façade registry with its entries in
// registration order — the generic surface `btadt list` renders, which
// therefore picks up new registries and registrations without
// per-registry code.
func Registries() []RegistryInfo {
	out := make([]RegistryInfo, 0, len(registryEnumerators))
	for _, enum := range registryEnumerators {
		out = append(out, enum())
	}
	return out
}

// RegisterSystem adds a system to the registry. It panics on an empty or
// duplicate name or a nil Run, mirroring database/sql's driver contract:
// registration happens in init functions, where failing loudly beats
// failing later by name lookup.
func RegisterSystem(s SystemSpec) {
	if s.Run == nil {
		panic(fmt.Sprintf("blockadt: system %q registered without a Run function", s.Name))
	}
	systemRegistry.register(s.Name, s)
}

// RegisterOracle adds a token-oracle constructor to the registry.
func RegisterOracle(o OracleSpec) {
	if o.New == nil {
		panic(fmt.Sprintf("blockadt: oracle %q registered without a constructor", o.Name))
	}
	oracleRegistry.register(o.Name, o)
}

// RegisterSelector adds a selection function f to the registry.
func RegisterSelector(s SelectorSpec) {
	if s.New == nil {
		panic(fmt.Sprintf("blockadt: selector %q registered without a constructor", s.Name))
	}
	selectorRegistry.register(s.Name, s)
}

// RegisterLink adds a communication model to the registry. Like every
// registry it panics on an empty or duplicate name; a name or Params
// containing '|' panics too, since both join the scenario key.
func RegisterLink(l LinkSpec) {
	checkKeyField("link", "params", l.Params)
	linkRegistry.register(l.Name, l)
}

// RegisterAdversary adds a fault model to the registry.
func RegisterAdversary(a AdversarySpec) {
	adversaryRegistry.register(a.Name, a)
}

// RegisterTopology adds a dissemination topology to the registry. Its
// name and Params join the scenario key, so '|' in either panics.
func RegisterTopology(t TopologySpec) {
	checkKeyField("topology", "params", t.Params)
	topologyRegistry.register(t.Name, t)
}

// RegisterMetric adds a run-measurement collector to the registry. Like
// the other six registries it panics on an empty or duplicate name or a
// nil Compute.
func RegisterMetric(m MetricSpec) {
	if m.Compute == nil {
		panic(fmt.Sprintf("blockadt: metric %q registered without a Compute function", m.Name))
	}
	metricRegistry.register(m.Name, m)
}

// LookupSystem returns the registered system spec, or an error naming the
// registered alternatives.
func LookupSystem(name string) (SystemSpec, error) { return systemRegistry.lookup(name) }

// LookupOracle returns the registered oracle spec.
func LookupOracle(name string) (OracleSpec, error) { return oracleRegistry.lookup(name) }

// LookupSelector returns the registered selector spec.
func LookupSelector(name string) (SelectorSpec, error) { return selectorRegistry.lookup(name) }

// LookupLink returns the registered link spec.
func LookupLink(name string) (LinkSpec, error) { return linkRegistry.lookup(name) }

// LookupAdversary returns the registered adversary spec.
func LookupAdversary(name string) (AdversarySpec, error) { return adversaryRegistry.lookup(name) }

// LookupTopology returns the registered topology spec.
func LookupTopology(name string) (TopologySpec, error) { return topologyRegistry.lookup(name) }

// LookupMetric returns the registered metric spec.
func LookupMetric(name string) (MetricSpec, error) { return metricRegistry.lookup(name) }

// Systems returns every registered system in registration order (for the
// built-ins, Table 1 order).
func Systems() []SystemSpec { return systemRegistry.all() }

// Oracles returns every registered oracle in registration order.
func Oracles() []OracleSpec { return oracleRegistry.all() }

// Selectors returns every registered selector in registration order.
func Selectors() []SelectorSpec { return selectorRegistry.all() }

// Links returns every registered link model in registration order.
func Links() []LinkSpec { return linkRegistry.all() }

// Adversaries returns every registered adversary in registration order.
func Adversaries() []AdversarySpec { return adversaryRegistry.all() }

// Topologies returns every registered topology in registration order.
func Topologies() []TopologySpec { return topologyRegistry.all() }

// Metrics returns every registered metric collector in registration
// order.
func Metrics() []MetricSpec { return metricRegistry.all() }

// MetricNames returns the registered metric names in registration order
// — the "all metrics" set WithMetrics() and `btadt stats` default to.
func MetricNames() []string { return metricRegistry.names() }

// SystemNames returns the registered system names in registration order —
// the default Systems dimension of a Matrix.
func SystemNames() []string { return systemRegistry.names() }
