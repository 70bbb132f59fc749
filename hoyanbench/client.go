package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/netmodel"
	"hoyan/internal/serve"
)

// daemon is an in-process hoyand reached over loopback HTTP.
type daemon struct {
	srv *serve.Server
	hs  *httptest.Server
}

// startDaemon starts hoyand with two workers at one core per query, loads
// the network (converging its base state) and starts its HTTP listener.
func startDaemon(tenants []serve.TenantConfig, net *config.Network, inputs []netmodel.Route, flows []netmodel.Flow) (*daemon, error) {
	srv, err := serve.NewServer(serve.Config{
		Tenants:          tenants,
		Workers:          2,
		QueryParallelism: 1,
		Sim:              core.Options{Parallelism: 1},
	})
	if err != nil {
		return nil, err
	}
	if _, err := srv.LoadNetwork("bench", net, inputs, flows, true); err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	return &daemon{srv: srv, hs: httptest.NewServer(srv.Handler())}, nil
}

func (d *daemon) stop() {
	d.hs.Close()
	d.srv.Shutdown(context.Background())
}

// client talks to the daemon as one tenant.
type client struct {
	base, key string
	hc        *http.Client
}

// conn is an HTTP client holding at most one keep-alive connection to the
// daemon; clients built on the same conn share that connection.
func (d *daemon) conn() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

func (d *daemon) clientOn(hc *http.Client, apiKey string) *client {
	return &client{base: d.hs.URL, key: apiKey, hc: hc}
}

// client is a tenant's client on a connection of its own.
func (d *daemon) client(apiKey string) *client { return d.clientOn(d.conn(), apiKey) }

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) do(method, path string, body any, accept string) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		enc, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(enc)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-API-Key", c.key)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	return c.hc.Do(req)
}

// submit posts a query. With wait it returns the terminal status (the
// synchronous ?wait=1 path); without, the 202 admission status. A refusal
// (429) comes back as its HTTP code with a zero status.
func (c *client) submit(q serve.QueryRequest, wait bool) (serve.Status, int, error) {
	path := "/v1/queries"
	if wait {
		path += "?wait=1"
	}
	resp, err := c.do(http.MethodPost, path, q, "")
	if err != nil {
		return serve.Status{}, 0, err
	}
	defer resp.Body.Close()
	var st serve.Status
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		err = json.NewDecoder(resp.Body).Decode(&st)
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return st, resp.StatusCode, err
}

// await returns the query's terminal status, first following its event
// stream to the end if it is still pending or running.
func (c *client) await(id string) (serve.Status, error) {
	st, err := c.status(id)
	if err != nil || st.State != serve.StatePending && st.State != serve.StateRunning {
		return st, err
	}
	resp, err := c.do(http.MethodGet, "/v1/queries/"+id, nil, "text/event-stream")
	if err != nil {
		return serve.Status{}, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return serve.Status{}, err
	}
	return c.status(id)
}

func (c *client) status(id string) (serve.Status, error) {
	resp, err := c.do(http.MethodGet, "/v1/queries/"+id, nil, "")
	if err != nil {
		return serve.Status{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return serve.Status{}, fmt.Errorf("status of %s: HTTP %d", id, resp.StatusCode)
	}
	var st serve.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// phases splits a finished query's time as the service recorded it.
func phases(st serve.Status) (enqueued, started, finished time.Time, ok bool) {
	if st.StartedAt == nil || st.FinishedAt == nil {
		return st.EnqueuedAt, time.Time{}, time.Time{}, false
	}
	return st.EnqueuedAt, *st.StartedAt, *st.FinishedAt, true
}
