package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
)

// Client speaks the job API of a remote coordinator, satisfying the same
// Backend and SweepBackend interfaces the in-process Coordinator does —
// workers and executors are indifferent to which one they hold.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for the coordinator at baseURL (the address
// ugfbench -serve printed, e.g. "http://host:6060"). The underlying
// http.Client has no global timeout: leases long-poll and result streams
// run for the sweep's lifetime, so deadlines belong to contexts.
func NewClient(baseURL string) *Client {
	return &Client{base: strings.TrimRight(baseURL, "/"), hc: &http.Client{}}
}

// Submit posts a sweep request.
func (c *Client) Submit(req SweepRequest) (SubmitResponse, error) {
	var resp SubmitResponse
	err := c.post(context.Background(), "/v1/sweeps", req, &resp)
	return resp, err
}

// Status fetches a sweep's progress.
func (c *Client) Status(id string) (SweepStatus, error) {
	var st SweepStatus
	err := c.get("/v1/sweeps/"+url.PathEscape(id), &st)
	return st, err
}

// Run fetches the cached record of one fingerprint.
func (c *Client) Run(fp string) (Record, error) {
	var rec Record
	err := c.get("/v1/runs/"+url.PathEscape(fp), &rec)
	return rec, err
}

// Counters fetches the coordinator's lifetime counters.
func (c *Client) Counters() (Counters, error) {
	var ct Counters
	err := c.get("/v1/counters", &ct)
	return ct, err
}

// Stream consumes a sweep's JSONL result feed from event index from,
// delivering each event to fn until the sweep finishes, ctx ends, or fn
// returns an error.
func (c *Client) Stream(ctx context.Context, id string, from int, fn func(ResultEvent) error) error {
	u := c.base + "/v1/sweeps/" + url.PathEscape(id) + "/results?from=" + strconv.Itoa(from)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return fmt.Errorf("service: client: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("service: client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24) // an older coordinator can stream multi-MB per-process outcome lines
	for sc.Scan() {
		var ev ResultEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("service: client: bad event line: %w", err)
		}
		if err := fn(ev); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("service: client: %w", err)
	}
	return ctx.Err()
}

// Acquire long-polls for a lease. (nil, nil) means the poll came back
// empty — the coordinator had nothing inside the context's deadline.
func (c *Client) Acquire(ctx context.Context) (*Lease, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/leases", nil)
	if err != nil {
		return nil, fmt.Errorf("service: client: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil, nil // deadline hit mid-poll: the idle answer
		}
		return nil, fmt.Errorf("service: client: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var lease Lease
		if err := json.NewDecoder(resp.Body).Decode(&lease); err != nil {
			return nil, fmt.Errorf("service: client: %w", err)
		}
		return &lease, nil
	case http.StatusNoContent:
		return nil, nil
	default:
		return nil, apiError(resp)
	}
}

// Complete reports a leased run's result.
func (c *Client) Complete(leaseID string, res CompleteRequest) error {
	return c.post(context.Background(), "/v1/leases/"+url.PathEscape(leaseID), res, nil)
}

func (c *Client) get(path string, out any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return fmt.Errorf("service: client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (c *Client) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("service: client: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("service: client: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("service: client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
		return apiError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// apiError decodes a non-200 response's structured error body, falling
// back to the raw text for non-API failures (a proxy's HTML 502, say).
func apiError(resp *http.Response) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var body errorBody
	if err := json.Unmarshal(data, &body); err == nil && body.Error.Msg != "" {
		return fmt.Errorf("service: %s: %w", resp.Status, &body.Error)
	}
	return fmt.Errorf("service: %s: %s", resp.Status, strings.TrimSpace(string(data)))
}
