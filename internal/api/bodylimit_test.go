package api

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"pds2/internal/crypto"
	"pds2/internal/ledger"
)

// TestRequestBodyLimit pins the body bound on every route that decodes
// a JSON body. A body one byte over maxBodyBytes is refused with 413 in
// the uniform envelope before any of it is decoded: each padded body is
// valid JSON, and the /v1/transactions one is a signed transaction that
// would otherwise be admitted. A transaction carrying the largest call
// data stateless verification accepts still fits and is admitted.
func TestRequestBodyLimit(t *testing.T) {
	srv, m, user := testServer(t, false)

	small := ledger.SignTx(user, user.Address(), 1, 0, m.DefaultGasLimit, nil)
	maxData := ledger.SignTx(user, user.Address(), 1, 0, 20_000_000, make([]byte, ledger.MaxTxDataBytes))
	overLimit := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return append(b, bytes.Repeat([]byte(" "), maxBodyBytes+1-len(b))...)
	}
	maxBody, err := json.Marshal(maxData)
	if err != nil {
		t.Fatal(err)
	}
	policyPath := "/v1/datasets/" + crypto.Digest{}.Hex() + "/policy"

	cases := []struct {
		name, method, path string
		body               []byte
		want               int
	}{
		{"transaction over limit", "POST", "/v1/transactions", overLimit(small), http.StatusRequestEntityTooLarge},
		{"dataset over limit", "POST", "/v1/datasets", overLimit(TxEnvelope{Tx: small}), http.StatusRequestEntityTooLarge},
		{"policy over limit", "PUT", policyPath, overLimit(TxEnvelope{Tx: small}), http.StatusRequestEntityTooLarge},
		{"contract over limit", "POST", "/v1/contracts", overLimit(TxEnvelope{Tx: small}), http.StatusRequestEntityTooLarge},
		{"view over limit", "POST", "/v1/views", overLimit(ViewRequest{To: m.Registry, Method: "owner"}), http.StatusRequestEntityTooLarge},
		{"max call data admitted", "POST", "/v1/transactions", maxBody, http.StatusAccepted},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, srv.URL+tc.path, bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d (body %.200s)", resp.StatusCode, tc.want, body)
			}
			if tc.want != http.StatusRequestEntityTooLarge {
				return
			}
			var e apiError
			if err := json.Unmarshal(body, &e); err != nil || e.Error.Code != CodeTooLarge || e.Error.Retryable {
				t.Fatalf("body %q is not the non-retryable too_large envelope", body)
			}
		})
	}
	if m.Pool.Contains(small.Hash()) {
		t.Fatal("an over-limit body was decoded and admitted")
	}
	if !m.Pool.Contains(maxData.Hash()) {
		t.Fatal("transaction with MaxTxDataBytes of call data was not admitted")
	}
}
