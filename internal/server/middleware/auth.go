package middleware

import (
	"crypto/subtle"
	"net/http"
	"strings"
)

// Auth locks the service behind one shared bearer token. An empty token
// leaves the service open: next is returned unchanged, so an open
// service pays nothing per request. Otherwise every request must carry
// "Authorization: Bearer TOKEN"; a missing, malformed or wrong header is
// answered 401 with a WWW-Authenticate challenge. The comparison is
// constant-time so the token does not leak through timing.
func Auth(token string) Middleware {
	return func(next http.Handler) http.Handler {
		if token == "" {
			return next
		}
		want := []byte(token)
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			bearer, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
			if !ok || subtle.ConstantTimeCompare([]byte(bearer), want) != 1 {
				w.Header().Set("WWW-Authenticate", `Bearer realm="dlsim"`)
				writeError(w, http.StatusUnauthorized, "missing or wrong bearer token")
				return
			}
			next.ServeHTTP(w, r)
		})
	}
}
