package client

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Sentinel error families mirroring the server's API error taxonomy.
// Every non-2xx API response decodes into an *APIError whose errors.Is
// matches exactly one of these, so callers branch on the family without
// parsing status codes or message text:
//
//	_, err := c.TopK(ctx, 0)
//	if errors.Is(err, client.ErrUnauthorized) { rotateToken() }
var (
	// ErrBadRequest: the request was malformed (bad parameter, invalid
	// reconfig body). Retrying unchanged will not help.
	ErrBadRequest = errors.New("client: bad request")
	// ErrUnauthorized: missing, unknown or revoked bearer token.
	ErrUnauthorized = errors.New("client: unauthorized")
	// ErrForbidden: the token is valid but not scoped to what was asked
	// (another tenant's data, or reconfig without the admin token).
	ErrForbidden = errors.New("client: forbidden")
	// ErrNotFound: unknown tenant or endpoint.
	ErrNotFound = errors.New("client: not found")
	// ErrUnavailable: the server is up but degraded or refusing work;
	// retry after a backoff.
	ErrUnavailable = errors.New("client: unavailable")
	// ErrServer: the server failed internally or answered outside the
	// taxonomy above.
	ErrServer = errors.New("client: server error")
)

// APIError is a non-2xx response from the daemon or aggregator API,
// carrying the machine-readable code the server attached. It unwraps
// (via errors.Is) to the matching sentinel family.
type APIError struct {
	// StatusCode is the HTTP status.
	StatusCode int
	// Code is the server's stable error code ("unauthorized",
	// "not_found", ...); empty when the body was not the standard error
	// document (e.g. an older daemon).
	Code string
	// Message is the human-readable server message.
	Message string
}

func (e *APIError) Error() string {
	status := fmt.Sprintf("http %d", e.StatusCode)
	if e.Code != "" {
		status += " " + e.Code
	}
	if e.Message != "" {
		return fmt.Sprintf("client: %s (%s)", e.Message, status)
	}
	return "client: " + status
}

// Is maps the error onto its sentinel family, preferring the server's
// code field and falling back to the HTTP status for responses from
// daemons that predate the error document.
func (e *APIError) Is(target error) bool {
	return target == e.family()
}

func (e *APIError) family() error {
	switch e.Code {
	case "bad_request":
		return ErrBadRequest
	case "unauthorized":
		return ErrUnauthorized
	case "forbidden":
		return ErrForbidden
	case "not_found":
		return ErrNotFound
	case "unavailable":
		return ErrUnavailable
	case "internal", "not_implemented":
		return ErrServer
	}
	switch e.StatusCode {
	case http.StatusBadRequest:
		return ErrBadRequest
	case http.StatusUnauthorized:
		return ErrUnauthorized
	case http.StatusForbidden:
		return ErrForbidden
	case http.StatusNotFound:
		return ErrNotFound
	case http.StatusServiceUnavailable, http.StatusTooManyRequests:
		return ErrUnavailable
	}
	return ErrServer
}

// apiErrorFrom builds the typed error for a non-2xx response, consuming
// (a bounded prefix of) the body.
func apiErrorFrom(resp *http.Response) *APIError {
	e := &APIError{StatusCode: resp.StatusCode}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	var doc struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if json.Unmarshal(body, &doc) == nil && (doc.Code != "" || doc.Error != "") {
		e.Code = doc.Code
		e.Message = doc.Error
	} else if msg := strings.TrimSpace(string(body)); msg != "" {
		e.Message = msg
	}
	return e
}
