package serve

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"topmine"
)

// Registry holds the set of named models a Server routes between. The
// name map is fixed after startup registration (Add); what can change
// at runtime is the Inferencer *behind* each name, swapped atomically
// by Reload. Requests therefore never take the registry lock on the
// hot path beyond an RWMutex read, and a reload drops zero requests:
// in-flight requests keep using the Inferencer pointer they loaded,
// new requests see the new one.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*ModelEntry
	def     string
}

// modelState is one immutable (inferencer, generation) publication.
// The pair is swapped as a single pointer so no reader can ever pair
// one load's Inferencer with another load's generation — the torn
// combination would let a request compute with the old model and
// cache the answer under the new generation's key, silently poisoning
// the "exact" response cache.
type modelState struct {
	inf *topmine.Inferencer
	gen uint64
}

// ModelEntry is one named model: an atomically swappable
// (Inferencer, generation) pair plus the provenance needed to reload
// it and report on it.
type ModelEntry struct {
	name string
	path string // snapshot file, or "" for in-memory models
	// loader rebuilds the Inferencer from its source; nil means the
	// model was registered in-memory and cannot be reloaded.
	loader func() (*topmine.Inferencer, error)

	state atomic.Pointer[modelState]
	// reloadMu serialises Reload calls so two concurrent reloads can
	// never publish the same generation for different content.
	reloadMu sync.Mutex
	reloads  atomic.Uint64 // successful reloads (not counting initial load)
	loadedAt atomic.Int64  // unix nanos of the last successful (re)load
}

// Name returns the registration name.
func (e *ModelEntry) Name() string { return e.name }

// Path returns the snapshot path backing this model ("" if in-memory).
func (e *ModelEntry) Path() string { return e.path }

// snapshot returns the current (inferencer, generation) publication.
// Request handlers must call this once and use the pair throughout, so
// a concurrent reload cannot change the model — or its cache keying —
// mid-request.
func (e *ModelEntry) snapshot() *modelState { return e.state.Load() }

// Inferencer returns the current Inferencer.
func (e *ModelEntry) Inferencer() *topmine.Inferencer {
	if st := e.state.Load(); st != nil {
		return st.inf
	}
	return nil
}

// Generation returns the load generation, starting at 1; it changes
// exactly when the Inferencer does, so (name, generation) uniquely
// identifies model content — the property the response cache keys on
// to stay exact across hot reloads.
func (e *ModelEntry) Generation() uint64 {
	if st := e.state.Load(); st != nil {
		return st.gen
	}
	return 0
}

// Reloads returns how many successful hot reloads the entry has seen.
func (e *ModelEntry) Reloads() uint64 { return e.reloads.Load() }

// LoadedAt returns the time of the last successful (re)load.
func (e *ModelEntry) LoadedAt() time.Time { return time.Unix(0, e.loadedAt.Load()) }

// Ready reports whether the entry currently holds a usable Inferencer.
func (e *ModelEntry) Ready() bool { return e.Inferencer() != nil }

// NewRegistry returns an empty registry; the first model added becomes
// the default until SetDefault overrides it.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*ModelEntry)}
}

func validModelName(name string) error {
	if name == "" {
		return fmt.Errorf("serve: model name must not be empty")
	}
	if strings.ContainsAny(name, "/ \t\n") {
		return fmt.Errorf("serve: model name %q must not contain slashes or whitespace", name)
	}
	return nil
}

// insert publishes a freshly built entry's initial state and adds it
// to the name map — the single place registration invariants
// (duplicate rejection, first-model-is-default election) live.
func (r *Registry) insert(e *ModelEntry, inf *topmine.Inferencer) error {
	e.state.Store(&modelState{inf: inf, gen: 1})
	e.loadedAt.Store(time.Now().UnixNano())

	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[e.name]; dup {
		return fmt.Errorf("serve: duplicate model name %q", e.name)
	}
	r.entries[e.name] = e
	if r.def == "" {
		r.def = e.name
	}
	return nil
}

// has reports whether name is registered (a cheap pre-check; insert
// under the lock remains authoritative).
func (r *Registry) has(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.entries[name]
	return ok
}

// Add registers a model by calling loader for its initial Inferencer.
// The loader is retained for hot reloads. The first model added
// becomes the default route.
func (r *Registry) Add(name string, path string, loader func() (*topmine.Inferencer, error)) error {
	if err := validModelName(name); err != nil {
		return err
	}
	if loader == nil {
		return fmt.Errorf("serve: model %q needs a loader", name)
	}
	// Fail duplicate names before the (potentially very expensive)
	// snapshot load; insert re-checks under the lock.
	if r.has(name) {
		return fmt.Errorf("serve: duplicate model name %q", name)
	}
	inf, err := loader()
	if err != nil {
		return fmt.Errorf("serve: loading model %q: %w", name, err)
	}
	return r.insert(&ModelEntry{name: name, path: path, loader: loader}, inf)
}

// AddInferencer registers an already-built in-memory model; Reload on
// it rebuilds nothing and returns an error.
func (r *Registry) AddInferencer(name string, inf *topmine.Inferencer) error {
	if inf == nil {
		return fmt.Errorf("serve: model %q: nil Inferencer", name)
	}
	if err := validModelName(name); err != nil {
		return err
	}
	return r.insert(&ModelEntry{name: name}, inf)
}

// AddSnapshotFile registers a model backed by a snapshot file written
// by `topmine train -save`; Reload re-reads the same path.
func (r *Registry) AddSnapshotFile(name, path string) error {
	return r.Add(name, path, func() (*topmine.Inferencer, error) {
		res, err := topmine.LoadSnapshotFile(path)
		if err != nil {
			return nil, err
		}
		return res.Inferencer()
	})
}

// SetDefault picks which model unnamed requests route to.
func (r *Registry) SetDefault(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[name]; !ok {
		return fmt.Errorf("serve: unknown model %q", name)
	}
	r.def = name
	return nil
}

// DefaultName returns the name unnamed requests route to ("" when the
// registry is empty).
func (r *Registry) DefaultName() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.def
}

// Lookup resolves a request's model name; "" means the default model.
func (r *Registry) Lookup(name string) (*ModelEntry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if name == "" {
		name = r.def
	}
	e, ok := r.entries[name]
	return e, ok
}

// Names lists registered models in sorted order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.entries))
	for n := range r.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Len returns the number of registered models.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// Reload rebuilds one model from its loader and atomically swaps it
// in. On failure the previous Inferencer stays live and keeps serving
// — a bad snapshot on disk can never take a healthy model down. A
// successful swap bumps the generation, which implicitly invalidates
// every cached response for the old content (the cache key embeds the
// generation; stale entries age out by LRU).
func (r *Registry) Reload(name string) error {
	e, ok := r.Lookup(name)
	if !ok {
		return fmt.Errorf("serve: unknown model %q", name)
	}
	if e.loader == nil {
		return fmt.Errorf("serve: model %q was registered in-memory and has no reloadable source", e.name)
	}
	// Serialise reloads per entry: the read-increment-publish of the
	// generation must not interleave, or two concurrent reloads could
	// publish the same generation for different model content.
	e.reloadMu.Lock()
	defer e.reloadMu.Unlock()
	inf, err := e.loader()
	if err != nil {
		return fmt.Errorf("serve: reloading model %q: %w", e.name, err)
	}
	e.state.Store(&modelState{inf: inf, gen: e.state.Load().gen + 1})
	e.reloads.Add(1)
	e.loadedAt.Store(time.Now().UnixNano())
	return nil
}

// ReloadAll reloads every model with a loader (in-memory models are
// skipped), collecting per-model failures into one joined error that
// preserves each cause for errors.Is/As.
func (r *Registry) ReloadAll() error {
	var errs []error
	for _, name := range r.Names() {
		e, _ := r.Lookup(name)
		if e == nil || e.loader == nil {
			continue
		}
		if err := r.Reload(name); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
