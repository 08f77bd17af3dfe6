package tiera

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"io"

	"repro/internal/object"
	"repro/internal/policy"
)

// Payload transformations implement the paper's compress and encrypt
// responses (Sec 2.1). A policy applies them to stored objects —
// compress(what: object.location == tier2) shrinks cold data, encrypt(...)
// protects it — and reads reverse them transparently: the application
// always sees the original bytes. When both are applied, compression runs
// first (compressing ciphertext is useless).

// instanceKey derives the instance's AES-256 key. A production deployment
// would inject key material; the derivation from the instance name keeps
// the mechanism (and its tests) self-contained.
func (in *Instance) instanceKey() []byte {
	sum := sha256.Sum256([]byte("wiera-instance-key/" + in.name))
	return sum[:]
}

// compressPayload gzips data.
func compressPayload(data []byte) ([]byte, error) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(data); err != nil {
		return nil, fmt.Errorf("tiera: compress: %w", err)
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("tiera: compress: %w", err)
	}
	return buf.Bytes(), nil
}

// decompressPayload reverses compressPayload.
func decompressPayload(data []byte) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("tiera: decompress: %w", err)
	}
	defer zr.Close()
	out, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("tiera: decompress: %w", err)
	}
	return out, nil
}

// encryptPayload seals data with AES-256-GCM under key; the nonce is
// prepended to the ciphertext.
func encryptPayload(key, data []byte) ([]byte, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("tiera: encrypt: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("tiera: encrypt: %w", err)
	}
	nonce := make([]byte, gcm.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("tiera: encrypt: %w", err)
	}
	return append(nonce, gcm.Seal(nil, nonce, data, nil)...), nil
}

// decryptPayload reverses encryptPayload.
func decryptPayload(key, data []byte) ([]byte, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("tiera: decrypt: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("tiera: decrypt: %w", err)
	}
	if len(data) < gcm.NonceSize() {
		return nil, fmt.Errorf("tiera: decrypt: ciphertext too short")
	}
	out, err := gcm.Open(nil, data[:gcm.NonceSize()], data[gcm.NonceSize():], nil)
	if err != nil {
		return nil, fmt.Errorf("tiera: decrypt: %w", err)
	}
	return out, nil
}

// transformMatching applies compress or encrypt to every (version, tier)
// pair the predicate selects. Already-transformed versions are skipped
// (idempotent policies).
func (in *Instance) transformMatching(pred policy.Predicate, encrypt bool) error {
	matches, err := in.matchObjects(pred)
	if err != nil {
		return err
	}
	for _, m := range matches {
		if (encrypt && m.meta.Encrypted) || (!encrypt && m.meta.Compressed) {
			continue
		}
		if err := in.transformOne(m.meta, encrypt); err != nil {
			return err
		}
	}
	return nil
}

// transformOne rewrites one version's payload in every tier holding it.
// The rewrite is not atomic with the metadata flag update: a reader racing
// a transform sweep can observe a rewritten payload before the flags are
// set (or vice versa on partial failure). Transform sweeps are intended
// for settled data (cold tiers, post-write-back), where no concurrent
// readers of the same version exist; policies should scope their selectors
// accordingly.
func (in *Instance) transformOne(meta object.Meta, encrypt bool) error {
	if encrypt && meta.Compressed {
		// Fine: encrypting compressed bytes preserves the reverse order.
	}
	if !encrypt && meta.Encrypted {
		return fmt.Errorf("tiera: cannot compress %s after encryption", meta.Key)
	}
	vk := object.VersionKey(meta.Key, meta.Version)
	var transformed []byte
	for _, label := range in.tierOrder {
		t := in.tiers[label]
		if !t.Has(vk) {
			continue
		}
		if transformed == nil {
			raw, err := t.Get(context.Background(), vk)
			if err != nil {
				return err
			}
			if encrypt {
				transformed, err = encryptPayload(in.instanceKey(), raw)
			} else {
				transformed, err = compressPayload(raw)
			}
			if err != nil {
				return err
			}
		}
		if err := t.Put(context.Background(), vk, transformed); err != nil {
			return err
		}
	}
	if transformed == nil {
		return fmt.Errorf("tiera: no tier holds %s", vk)
	}
	compressed, encrypted := meta.Compressed, meta.Encrypted
	if encrypt {
		encrypted = true
	} else {
		compressed = true
	}
	return in.objects.SetTransforms(meta.Key, meta.Version, compressed, encrypted)
}

// untransform reverses any payload transformations for a read.
func (in *Instance) untransform(meta object.Meta, data []byte) ([]byte, error) {
	var err error
	if meta.Encrypted {
		data, err = decryptPayload(in.instanceKey(), data)
		if err != nil {
			return nil, err
		}
	}
	if meta.Compressed {
		data, err = decompressPayload(data)
		if err != nil {
			return nil, err
		}
	}
	return data, nil
}
