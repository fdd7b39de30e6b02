// Command topmined serves trained ToPMine pipeline snapshots over
// HTTP: topic inference, phrase segmentation, topic listing, model
// management, and Prometheus metrics.
//
// Usage:
//
//	topmine train -synth yelp-reviews -k 10 -save yelp.tpm
//	topmine train -synth dblp-titles  -k 10 -save dblp.tpm
//
//	# one model (requests route to it by default)
//	topmined -model yelp.tpm -addr :8080
//
//	# several models: repeat -model (name=path, or a bare path whose
//	# basename becomes the name), or scan a directory of *.tpm files
//	topmined -model yelp=yelp.tpm -model dblp=dblp.tpm
//	topmined -models snapshots/ -default yelp
//
//	curl -s localhost:8080/v1/infer -d '{"text": "great food and service"}'
//	curl -s localhost:8080/v1/infer -d '{"text": "query optimization", "model": "dblp"}'
//	curl -s localhost:8080/v1/models
//	curl -s localhost:8080/metrics
//
// Models hot-reload from their snapshot paths without dropping
// requests: POST /v1/models/{name}/reload reloads one, SIGHUP reloads
// all. The process drains in-flight requests on SIGINT/SIGTERM before
// exiting (bounded by -drain).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"topmine/internal/serve"
)

// modelFlags collects repeated -model values ("name=path" or "path").
type modelFlags []string

func (m *modelFlags) String() string     { return strings.Join(*m, ", ") }
func (m *modelFlags) Set(v string) error { *m = append(*m, v); return nil }

// modelNameFromPath derives a registry name from a snapshot path: the
// basename without extension ("snapshots/yelp.tpm" -> "yelp"). Shared
// by the -model bare-path form and the -models dir scan so both derive
// identical names for the same file.
func modelNameFromPath(path string) string {
	base := filepath.Base(path)
	return strings.TrimSuffix(base, filepath.Ext(base))
}

// nameFor splits one -model value into its registry name and path. A
// value is treated as an explicit "name=path" binding only when the
// part before the first '=' is a plausible model name (non-empty, no
// path separators); otherwise the whole value is a bare path and the
// name derives from its basename. That keeps paths like
// "./run=2/yelp.tpm" working; a file literally named "a=b.tpm" parses
// as a binding — serve it via -models dir scan (which never splits)
// or an explicit name= prefix.
func nameFor(v string) (name, path string, err error) {
	if i := strings.IndexByte(v, '='); i > 0 && !strings.ContainsAny(v[:i], "/\\") {
		name, path = v[:i], v[i+1:]
		if path == "" {
			return "", "", fmt.Errorf("-model %q: want name=path", v)
		}
		return name, path, nil
	}
	return modelNameFromPath(v), v, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("topmined: ")

	var models modelFlags
	flag.Var(&models, "model", "snapshot to serve, as name=path or a bare path (basename becomes the name); repeatable")
	modelsDir := flag.String("models", "", "directory to scan for *.tpm snapshots (each file's basename becomes its model name)")
	defModel := flag.String("default", "", "model unnamed requests route to (default: first -model flag, or first scanned file)")
	addr := flag.String("addr", ":8080", "listen address")
	iters := flag.Int("iters", 50, "default sampling sweeps per inference request (each costs an equal burn-in on top)")
	maxIters := flag.Int("max-iters", 1000, "cap on per-request TOTAL Gibbs sweeps, burn-in + sampling (raised to 2×-iters if lower)")
	maxBody := flag.Int64("max-body", 1<<20, "maximum request body bytes")
	maxBatch := flag.Int("max-batch", 256, "maximum documents per batched infer request")
	cacheBytes := flag.Int64("cache-bytes", 32<<20, "exact response cache budget in bytes (0 disables)")
	adminToken := flag.String("admin-token", "", "bearer token required on admin endpoints (model reload); empty leaves them open")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown drain timeout")
	readTimeout := flag.Duration("read-timeout", 30*time.Second, "max time to read one request including its body (0 disables; header read is always bounded)")
	writeTimeout := flag.Duration("write-timeout", 5*time.Minute, "max time to serve one response; generous so max-size batches at high iteration counts still finish (0 disables)")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "how long an idle keep-alive connection is kept open (0 disables)")
	warmLog := flag.String("warm-log", "", "newline-delimited access log to replay into the response cache on startup (plain text per line, or JSON {\"text\",\"model\",\"iters\",\"op\"}; -request-log output works directly)")
	requestLog := flag.String("request-log", "", "write one JSON line per request (latency breakdown: resolve/infer/marshal) to this file ('-' = stderr)")
	pprofFlag := flag.Bool("pprof", false, "mount Go's net/http/pprof profiling handlers under /debug/pprof/ on the serving port; "+
		"off by default because profiles expose internals (guard the port, or leave this off in untrusted networks)")
	flag.Parse()

	if len(models) == 0 && *modelsDir == "" {
		flag.Usage()
		os.Exit(2)
	}

	// Claim SIGHUP before the (possibly slow) snapshot loads: until
	// Notify runs, a HUP's default disposition terminates the process —
	// a signal documented as "reload" must never kill a starting
	// daemon. HUPs arriving during startup are buffered and handled
	// once the reload goroutine starts below.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)

	reg := serve.NewRegistry()
	for _, v := range models {
		name, path, err := nameFor(v)
		if err != nil {
			log.Fatal(err)
		}
		if err := reg.AddSnapshotFile(name, path); err != nil {
			log.Fatal(err)
		}
	}
	if *modelsDir != "" {
		paths, err := filepath.Glob(filepath.Join(*modelsDir, "*.tpm"))
		if err != nil {
			log.Fatal(err)
		}
		for _, path := range paths {
			// Scanned paths are never name=path bindings: the basename
			// (sans extension) is the name, even if it contains '='.
			// Unlike explicit -model flags, one bad scanned file (bad
			// name, corrupt snapshot, duplicate) must not take down
			// startup for every valid model next to it: warn and skip.
			name := modelNameFromPath(path)
			if name == "" {
				log.Printf("skipping %s: no model name derivable from basename", path)
				continue
			}
			if err := reg.AddSnapshotFile(name, path); err != nil {
				log.Printf("skipping %s: %v", path, err)
			}
		}
	}
	if reg.Len() == 0 {
		log.Fatal("no models loaded")
	}
	if *defModel != "" {
		if err := reg.SetDefault(*defModel); err != nil {
			log.Fatal(err)
		}
	}
	for _, name := range reg.Names() {
		e, _ := reg.Lookup(name)
		st := e.Inferencer().Stats()
		def := ""
		if name == reg.DefaultName() {
			def = " (default)"
		}
		log.Printf("loaded %s%s from %s: %d topics, %d stems, %d frequent phrases",
			name, def, e.Path(), st.Topics, st.VocabSize, st.Phrases)
	}

	cb := *cacheBytes
	if cb == 0 {
		cb = -1 // Options treats 0 as "use the default"; the flag's 0 means off.
	}
	var reqLog *os.File
	if *requestLog == "-" {
		reqLog = os.Stderr
	} else if *requestLog != "" {
		f, err := os.OpenFile(*requestLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		reqLog = f
	}
	opt := serve.Options{
		MaxBodyBytes: *maxBody,
		MaxBatch:     *maxBatch,
		DefaultIters: *iters,
		MaxIters:     *maxIters,
		CacheBytes:   cb,
		AdminToken:   *adminToken,
	}
	if reqLog != nil {
		opt.RequestLog = reqLog
	}
	handler := serve.NewWithRegistry(reg, opt)
	var root http.Handler = handler
	if *pprofFlag {
		// The serve mux owns "/" — mount pprof on an outer mux so the
		// API surface is untouched and only /debug/pprof/ is new.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		root = mux
		log.Print("pprof profiling enabled on /debug/pprof/")
	}
	// ReadHeaderTimeout alone leaves two ways for a misbehaving client
	// to pin a connection forever: trickling the request body after the
	// headers (ReadTimeout bounds that) and parking an idle keep-alive
	// connection (IdleTimeout bounds that). WriteTimeout stays generous
	// — a max-size batch at high iteration counts legitimately takes
	// minutes — but still finite so a dead peer cannot hold a handler's
	// goroutine for good.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           root,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	if *warmLog != "" {
		// Warm in the background: the port should accept traffic
		// immediately, with warming racing the first real requests
		// through the same cache and coalescing paths (never duplicating
		// their work).
		go func() {
			f, err := os.Open(*warmLog)
			if err != nil {
				log.Printf("warm-log: %v", err)
				return
			}
			defer f.Close()
			st, err := handler.WarmFromLog(f)
			if err != nil {
				log.Printf("warm-log: %v", err)
			}
			log.Printf("warm-log: %d lines: %d warmed, %d already cached, %d skipped, %d ignored",
				st.Lines, st.Warmed, st.Hits, st.Skipped, st.Ignored)
			for _, e := range st.Errors {
				log.Printf("warm-log: skipped: %s", e)
			}
		}()
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("listening on %s", *addr)
		errc <- srv.ListenAndServe()
	}()

	go func() {
		for range hup {
			log.Print("SIGHUP: reloading all models")
			if err := reg.ReloadAll(); err != nil {
				log.Printf("reload: %v", err)
			} else {
				log.Print("reload complete")
			}
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatal(err)
	case sig := <-stop:
		log.Printf("received %v, draining (up to %v)", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Fatalf("shutdown: %v", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
		log.Print("drained cleanly")
	}
}
