//! An independent reference for `/predict`: the paper's MLP (Dense 128
//! → ReLU → Dense 64 → ReLU → Dense 3 → softmax) as plain loops over a
//! checkpoint's exported parameters, sharing no code with
//! `nd_neural`'s GEMM path.
//!
//! The server answers with the output layer's values (pre-softmax) as
//! `scores` and their argmax as `class`, so the reference stops before
//! the softmax too. A response is accepted when its scores match the
//! reference within [`TOLERANCE`] and `class` is their argmax. The
//! scores are not checked to sum to 1: logits need not, and a softmax
//! of them always does, so neither form of that check could catch a
//! wrong answer.

/// Largest accepted difference between a served score and the
/// reference, relative to `max(1, |reference|)`. The served path sums
/// in GEMM block order, the reference in plain index order, so the two
/// differ only by rounding.
pub const TOLERANCE: f64 = 1e-9;

/// Hidden and output widths of the paper's MLP.
const WIDTHS: [usize; 3] = [128, 64, 3];

/// One dense layer: `in_dim * out_dim` row-major weights, then biases.
#[derive(Debug, Clone)]
struct Dense {
    in_dim: usize,
    out_dim: usize,
    params: Vec<f64>,
}

/// The reference network.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// Builds the reference from `Network::export_params` output:
    /// dense, ReLU (no parameters), dense, ReLU, dense.
    ///
    /// # Errors
    /// A message when the parameters are not the paper's MLP over
    /// `input_dim` features.
    pub fn from_params(params: &[Vec<f64>], input_dim: usize) -> Result<Mlp, String> {
        if params.len() != 5 || !params[1].is_empty() || !params[3].is_empty() {
            return Err(format!(
                "expected dense/relu/dense/relu/dense, got {} layers",
                params.len()
            ));
        }
        let mut layers = Vec::with_capacity(3);
        let mut in_dim = input_dim;
        for (p, out_dim) in [&params[0], &params[2], &params[4]].into_iter().zip(WIDTHS) {
            if p.len() != in_dim * out_dim + out_dim {
                return Err(format!(
                    "dense {in_dim}->{out_dim} needs {} parameters, checkpoint has {}",
                    in_dim * out_dim + out_dim,
                    p.len()
                ));
            }
            layers.push(Dense {
                in_dim,
                out_dim,
                params: p.clone(),
            });
            in_dim = out_dim;
        }
        Ok(Mlp { layers })
    }

    /// The output layer's values for one row (before softmax).
    pub fn logits(&self, row: &[f64]) -> Vec<f64> {
        let mut x = row.to_vec();
        for (li, layer) in self.layers.iter().enumerate() {
            let (w, b) = layer.params.split_at(layer.in_dim * layer.out_dim);
            let mut y = b.to_vec();
            for (i, &xi) in x.iter().enumerate() {
                for j in 0..layer.out_dim {
                    y[j] += xi * w[i * layer.out_dim + j];
                }
            }
            if li + 1 < self.layers.len() {
                for v in &mut y {
                    *v = v.max(0.0);
                }
            }
            x = y;
        }
        x
    }
}

/// Index of the first largest value.
fn argmax(z: &[f64]) -> usize {
    let mut best = 0;
    for (i, &v) in z.iter().enumerate() {
        if v > z[best] {
            best = i;
        }
    }
    best
}

/// Checks one served prediction against the reference: every score
/// within [`TOLERANCE`], and `class` their argmax.
///
/// # Errors
/// A message naming the first check that failed.
pub fn check(reference: &Mlp, row: &[f64], scores: &[f64], class: usize) -> Result<(), String> {
    let expected = reference.logits(row);
    if scores.len() != expected.len() {
        return Err(format!(
            "{} scores, expected {}",
            scores.len(),
            expected.len()
        ));
    }
    for (j, (&s, &e)) in scores.iter().zip(&expected).enumerate() {
        // Written so that a NaN score fails the check.
        let close = (s - e).abs() <= TOLERANCE * e.abs().max(1.0);
        if !close {
            return Err(format!("score {j} is {s}, reference {e}"));
        }
    }
    if class != argmax(scores) {
        return Err(format!("class {class} is not the argmax of {scores:?}"));
    }
    Ok(())
}

/// Checks a `/predict` batch response body (`predictions[i].scores`,
/// `predictions[i].class`) for `rows`.
///
/// # Errors
/// A message for a malformed body or the first row that fails [`check`].
pub fn check_response(
    reference: &Mlp,
    rows: &[Vec<f64>],
    body: &serde_json::Value,
) -> Result<(), String> {
    let preds = body["predictions"]
        .as_array()
        .ok_or("response has no predictions array")?;
    if preds.len() != rows.len() {
        return Err(format!(
            "{} predictions for {} rows",
            preds.len(),
            rows.len()
        ));
    }
    for (row, p) in rows.iter().zip(preds) {
        let scores: Vec<f64> = p["scores"]
            .as_array()
            .ok_or("prediction has no scores")?
            .iter()
            .map(|v| v.as_f64().ok_or("non-numeric score"))
            .collect::<Result<_, _>>()?;
        let class = p["class"].as_u64().ok_or("prediction has no class")? as usize;
        check(reference, row, &scores, class)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nd_core::predict::build_mlp;
    use nd_linalg::Mat;
    use nd_serve::loadgen::Rng;
    use serde_json::json;

    fn random_rows(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = Rng::new(seed);
        (0..n)
            .map(|_| (0..dim).map(|_| rng.next_f64() * 4.0 - 2.0).collect())
            .collect()
    }

    /// What the server would answer for `rows`: `Network::predict_batch`
    /// scores and their argmax classes.
    fn served(net: &nd_neural::Network, rows: &[Vec<f64>]) -> (Vec<Vec<f64>>, Vec<usize>) {
        let out = net.predict_batch(&Mat::from_rows(rows).expect("rectangular rows"));
        let scores: Vec<Vec<f64>> = (0..rows.len()).map(|i| out.row(i).to_vec()).collect();
        let classes = scores.iter().map(|s| argmax(s)).collect();
        (scores, classes)
    }

    fn body(scores: &[Vec<f64>], classes: &[usize]) -> serde_json::Value {
        let predictions: Vec<serde_json::Value> = scores
            .iter()
            .zip(classes)
            .map(|(s, c)| json!({"scores": s, "class": c}))
            .collect();
        json!({"predictions": predictions})
    }

    #[test]
    fn reference_agrees_with_network_predict_on_a_random_mlp() {
        for (dim, seed) in [(7, 1), (32, 2), (308, 3)] {
            let net = build_mlp(dim, seed);
            let mlp = Mlp::from_params(&net.export_params(), dim).expect("paper MLP");
            let rows = random_rows(9, dim, seed + 100);
            let (scores, classes) = served(&net, &rows);
            check_response(&mlp, &rows, &body(&scores, &classes))
                .expect("reference accepts the network's output");
        }
    }

    #[test]
    fn reference_flags_a_perturbed_score() {
        let dim = 16;
        let net = build_mlp(dim, 5);
        let mlp = Mlp::from_params(&net.export_params(), dim).expect("paper MLP");
        let rows = random_rows(4, dim, 6);
        let (mut scores, classes) = served(&net, &rows);
        scores[2][1] = scores[2][1] * (1.0 + 1e-6) + 1e-6;
        let err = check_response(&mlp, &rows, &body(&scores, &classes))
            .expect_err("perturbed score must fail");
        assert!(err.contains("score 1"), "{err}");
    }

    #[test]
    fn reference_flags_a_wrong_class() {
        let dim = 16;
        let net = build_mlp(dim, 8);
        let mlp = Mlp::from_params(&net.export_params(), dim).expect("paper MLP");
        let rows = random_rows(3, dim, 9);
        let (scores, mut classes) = served(&net, &rows);
        classes[0] = (classes[0] + 1) % 3;
        let err = check_response(&mlp, &rows, &body(&scores, &classes))
            .expect_err("wrong class must fail");
        assert!(err.contains("argmax"), "{err}");
    }

    #[test]
    fn reference_rejects_a_foreign_architecture() {
        let net = build_mlp(10, 1);
        assert!(Mlp::from_params(&net.export_params(), 11).is_err());
        assert!(Mlp::from_params(&net.export_params()[..3], 10).is_err());
    }
}
