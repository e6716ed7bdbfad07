package server

import (
	"net/http"
	"strings"

	"repro/internal/suite"
)

// Suite-derived resources are content-addressed: the hash in the URL is a
// cryptographic digest of everything below it, so the URL path itself is
// a perfect cache validator. Each immutable endpoint's strong ETag is
// derived from the path alone, which lets a conditional GET be answered
// 304 before the store — or even the in-memory LRU — is touched at all.
// (A 304 for a hash this replica never stored is therefore possible, and
// correct: the client holding that validator got it from a 200 for the
// same content address, and content-addressed bytes never change.)

const (
	// headerSuiteHash carries the suite's content address on every
	// suite-derived response, so clients and intermediaries can correlate
	// bodies with store state without parsing URLs.
	headerSuiteHash = "X-Suite-Hash"
	// immutableCacheControl marks content-addressed responses as safe to
	// cache forever: a hash's bytes can never change, only cease to exist.
	immutableCacheControl = "public, max-age=31536000, immutable"
)

// suiteETag builds the strong ETag for a suite-derived resource:
// `"<hash>"` for the index, `"<hash>/<name>"` for files within it.
func suiteETag(parts ...string) string {
	return `"` + strings.Join(parts, "/") + `"`
}

// immutable stamps the caching headers for a content-addressed resource
// and reports whether the request was fully answered with 304 Not
// Modified. It must run before any store or LRU access — that ordering is
// what makes a repeat conditional GET cost zero store reads.
func (s *Server) immutable(w http.ResponseWriter, r *http.Request, hash string, extra ...string) bool {
	if !suite.ValidHash(hash) {
		return false // malformed address: let the handler report it
	}
	etag := suiteETag(append([]string{hash}, extra...)...)
	h := w.Header()
	h.Set("ETag", etag)
	h.Set("Cache-Control", immutableCacheControl)
	h.Set(headerSuiteHash, hash)
	if inm := r.Header.Get("If-None-Match"); inm != "" {
		if etagMatch(inm, etag) {
			s.metrics.observeConditional(true)
			w.WriteHeader(http.StatusNotModified)
			return true
		}
		s.metrics.observeConditional(false)
	}
	return false
}

// etagMatch implements If-None-Match's weak comparison over its
// comma-separated validator list (RFC 9110 §13.1.2): a weak-prefixed
// client validator still matches our strong tag, and "*" matches any
// current representation.
func etagMatch(ifNoneMatch, etag string) bool {
	if strings.TrimSpace(ifNoneMatch) == "*" {
		return true
	}
	for _, candidate := range strings.Split(ifNoneMatch, ",") {
		candidate = strings.TrimSpace(candidate)
		candidate = strings.TrimPrefix(candidate, "W/")
		if candidate == etag {
			return true
		}
	}
	return false
}
