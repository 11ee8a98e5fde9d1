package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestOversizedBodiesAre413: every route that decodes a request body answers
// 413 to one over maxRequestBody — refused upfront when its length is
// declared, and after reading at most the bound when it is streamed —
// instead of buffering whatever a client sends.
func TestOversizedBodiesAre413(t *testing.T) {
	s := New(1)
	defer s.Close()
	oversized := `{"pad":"` + strings.Repeat("x", maxRequestBody) + `"}`
	for _, path := range []string{
		"/v1/games",
		"/v1/jobs",
		"/v2/jobs",
		"/v2/batch",
		"/dist/join",
		"/dist/lease",
		"/dist/report",
	} {
		for _, declared := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/declared=%v", strings.TrimPrefix(path, "/"), declared), func(t *testing.T) {
				req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(oversized))
				if !declared {
					req.ContentLength = -1 // streamed: the bound trips while reading
				}
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				if rec.Code != http.StatusRequestEntityTooLarge {
					t.Fatalf("POST %s with a %d-byte body: %d %.200s", path, len(oversized), rec.Code, rec.Body)
				}
			})
		}
	}
}
