package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"nnwc/internal/nn"
	"nnwc/internal/preprocess"
)

// modelJSON is the on-disk representation of an NNModel: schema, scaler
// parameters, and the network weights. The format is plain JSON so models
// are diffable and inspectable.
type modelJSON struct {
	FeatureNames []string   `json:"feature_names"`
	TargetNames  []string   `json:"target_names"`
	XScaler      scalerJSON `json:"x_scaler"`
	YScaler      scalerJSON `json:"y_scaler"`
	// FeatureMin/FeatureMax carry the training envelope when the model
	// recorded one; absent in artifacts written before the field existed.
	FeatureMin []float64       `json:"feature_min,omitempty"`
	FeatureMax []float64       `json:"feature_max,omitempty"`
	Network    json.RawMessage `json:"network"`
}

type scalerJSON struct {
	Kind string    `json:"kind"` // "standardizer" | "identity"
	Mean []float64 `json:"mean,omitempty"`
	Std  []float64 `json:"std,omitempty"`
	Dims int       `json:"dims,omitempty"`
}

func encodeScaler(s preprocess.Scaler) (scalerJSON, error) {
	switch sc := s.(type) {
	case *preprocess.Standardizer:
		return scalerJSON{Kind: "standardizer", Mean: sc.Mean(), Std: sc.Std()}, nil
	case *preprocess.Identity:
		return scalerJSON{Kind: "identity", Dims: sc.Dims()}, nil
	}
	return scalerJSON{}, fmt.Errorf("core: cannot persist scaler of type %T", s)
}

// decodeScaler rebuilds a persisted scaler over dims columns. It rejects
// what Save never writes: a shape other than dims, and a standard
// deviation that is not finite and positive.
func decodeScaler(sj scalerJSON, dims int) (preprocess.Scaler, error) {
	switch sj.Kind {
	case "standardizer":
		if len(sj.Mean) == 0 || len(sj.Mean) != len(sj.Std) {
			return nil, fmt.Errorf("core: malformed standardizer parameters")
		}
		if len(sj.Mean) != dims {
			return nil, fmt.Errorf("core: standardizer has %d columns, schema has %d", len(sj.Mean), dims)
		}
		for j, sd := range sj.Std {
			if !(sd > 0) || math.IsInf(sd, 1) {
				return nil, fmt.Errorf("core: standardizer column %d has std %v", j, sd)
			}
		}
		// Rebuild by fitting on two rows that reproduce the recorded
		// mean and std exactly: mean±std has mean `mean` and population
		// std `std`.
		rows := [][]float64{make([]float64, len(sj.Mean)), make([]float64, len(sj.Mean))}
		for j := range sj.Mean {
			rows[0][j] = sj.Mean[j] - sj.Std[j]
			rows[1][j] = sj.Mean[j] + sj.Std[j]
		}
		sc := preprocess.NewStandardizer()
		if err := sc.Fit(rows); err != nil {
			return nil, err
		}
		return sc, nil
	case "identity":
		if sj.Dims != 0 && sj.Dims != dims {
			return nil, fmt.Errorf("core: identity scaler has %d columns, schema has %d", sj.Dims, dims)
		}
		sc := preprocess.NewIdentity()
		if sj.Dims > 0 {
			if err := sc.Fit([][]float64{make([]float64, sj.Dims)}); err != nil {
				return nil, err
			}
		}
		return sc, nil
	}
	return nil, fmt.Errorf("core: unknown scaler kind %q", sj.Kind)
}

// Save writes the model as JSON.
func (m *NNModel) Save(w io.Writer) error {
	xs, err := encodeScaler(m.XScaler)
	if err != nil {
		return err
	}
	ys, err := encodeScaler(m.YScaler)
	if err != nil {
		return err
	}
	var netBuf bytes.Buffer
	if err := m.Net.Save(&netBuf); err != nil {
		return err
	}
	doc := modelJSON{
		FeatureNames: m.FeatureNames,
		TargetNames:  m.TargetNames,
		XScaler:      xs,
		YScaler:      ys,
		FeatureMin:   m.FeatureMin,
		FeatureMax:   m.FeatureMax,
		Network:      json.RawMessage(netBuf.Bytes()),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// LoadModel reads a model previously written by Save. Fields it does not
// know are ignored, so older artifacts that also carry a params_f32
// quantized copy of the weights still load.
func LoadModel(r io.Reader) (*NNModel, error) {
	var doc modelJSON
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("core: decoding model: %w", err)
	}
	xScaler, err := decodeScaler(doc.XScaler, len(doc.FeatureNames))
	if err != nil {
		return nil, err
	}
	yScaler, err := decodeScaler(doc.YScaler, len(doc.TargetNames))
	if err != nil {
		return nil, err
	}
	net, err := nn.Load(bytes.NewReader(doc.Network))
	if err != nil {
		return nil, err
	}
	m := &NNModel{
		FeatureNames: doc.FeatureNames,
		TargetNames:  doc.TargetNames,
		XScaler:      xScaler,
		YScaler:      yScaler,
		FeatureMin:   doc.FeatureMin,
		FeatureMax:   doc.FeatureMax,
		Net:          net,
	}
	if net.InputDim() != len(m.FeatureNames) || net.OutputDim() != len(m.TargetNames) {
		return nil, fmt.Errorf("core: network dims (%d,%d) do not match schema (%d,%d)",
			net.InputDim(), net.OutputDim(), len(m.FeatureNames), len(m.TargetNames))
	}
	if (m.FeatureMin != nil || m.FeatureMax != nil) &&
		(len(m.FeatureMin) != len(m.FeatureNames) || len(m.FeatureMax) != len(m.FeatureNames)) {
		return nil, fmt.Errorf("core: training envelope has %d/%d entries for %d features",
			len(m.FeatureMin), len(m.FeatureMax), len(m.FeatureNames))
	}
	return m, nil
}

// SaveFile writes the model to path, atomically: the JSON lands in a
// temporary sibling file that is renamed into place, so a concurrent reader
// (the prediction server's hot reload) never observes a half-written
// artifact.
func (m *NNModel) SaveFile(path string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := m.Save(tmp); err != nil {
		_ = tmp.Close() // the save error is the one worth returning
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadModelFile opens path and loads the model persisted there.
func LoadModelFile(path string) (*NNModel, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadModel(f)
}
