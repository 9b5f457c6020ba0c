package deploy

import (
	"fmt"
	"maps"

	"engage/internal/driver"
	"engage/internal/resource"
)

// Factory builds the driver state machine for one resource instance.
// Factories receive the bound context so action closures can capture it,
// though most simply return a shared StateMachine description whose
// actions read the context they are invoked with.
type Factory func(ctx *driver.Context) *driver.StateMachine

// DriverRegistry resolves driver factories for resource keys.
// Resolution order: exact key ("Tomcat 6.0.18"), then package name
// ("Tomcat"), then the resource type's declarative `driver { … }` clause
// compiled against the Actions registry, then the Default factory. The
// paper notes generic driver code is often reused ("No additional
// Python code was required for the driver as we were able to reuse
// existing generic driver code"); named actions and Default are those
// reuse points.
type DriverRegistry struct {
	byKey  map[string]Factory
	byName map[string]Factory
	// Actions resolves the `exec "name"` action references of
	// declarative drivers.
	Actions driver.Actions
	Default Factory
}

// NewDriverRegistry returns an empty driver registry whose Default is a
// bookkeeping-only library machine.
func NewDriverRegistry() *DriverRegistry {
	return &DriverRegistry{
		byKey:   make(map[string]Factory),
		byName:  make(map[string]Factory),
		Actions: make(driver.Actions),
		Default: func(*driver.Context) *driver.StateMachine { return driver.LibraryMachine(nil, nil) },
	}
}

// RegisterAction installs a named action implementation for declarative
// drivers.
func (r *DriverRegistry) RegisterAction(name string, fn driver.ActionFunc) {
	r.Actions[name] = fn
}

// RegisterKey installs a factory for an exact resource key.
func (r *DriverRegistry) RegisterKey(key resource.Key, f Factory) {
	r.byKey[key.String()] = f
}

// With returns a copy of r with f installed for the exact key; r is
// not changed, so a registry shared by in-flight deployments stays safe
// to resolve from while its successor takes a new package's driver.
func (r *DriverRegistry) With(key resource.Key, f Factory) *DriverRegistry {
	out := &DriverRegistry{
		byKey:   maps.Clone(r.byKey),
		byName:  maps.Clone(r.byName),
		Actions: maps.Clone(r.Actions),
		Default: r.Default,
	}
	out.byKey[key.String()] = f
	return out
}

// RegisterName installs a factory for every version of a package name.
func (r *DriverRegistry) RegisterName(name string, f Factory) {
	r.byName[name] = f
}

// Resolve returns the factory for a resource type.
func (r *DriverRegistry) Resolve(t *resource.Type) (Factory, error) {
	key := t.Key
	if f, ok := r.byKey[key.String()]; ok {
		return f, nil
	}
	if f, ok := r.byName[key.Name]; ok {
		return f, nil
	}
	if t.Driver != nil {
		sm, err := driver.CompileSpec(t.Driver, r.Actions)
		if err != nil {
			return nil, fmt.Errorf("deploy: resource %q: %w", key, err)
		}
		return func(*driver.Context) *driver.StateMachine { return sm }, nil
	}
	if r.Default != nil {
		return r.Default, nil
	}
	return nil, fmt.Errorf("deploy: no driver for resource %q", key)
}
