//! Network layers with manual forward/backward passes.
//!
//! Every layer caches what its backward pass needs during `forward` and
//! accumulates parameter gradients in [`Param::grad`] during `backward`.
//! The trainer visits parameters in a deterministic order via
//! `Layer::visit_params`, which is what keys the Adam state.

use crate::tensor::Tensor;
use rand::rngs::StdRng;

/// A learnable parameter: value and accumulated gradient.
#[derive(Debug, Clone)]
pub struct Param {
    /// Parameter values.
    pub value: Vec<f32>,
    /// Accumulated gradient (same length).
    pub grad: Vec<f32>,
}

impl Param {
    /// Creates a parameter with zeroed gradient.
    pub fn new(value: Vec<f32>) -> Self {
        let grad = vec![0.0; value.len()];
        Param { value, grad }
    }

    /// Zeroes the gradient.
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }
}

/// Common layer interface.
pub(crate) trait Layer {
    /// Forward pass; caches activations needed by backward.
    fn forward(&mut self, x: &Tensor) -> Tensor;
    /// Backward pass: takes `dL/dy`, accumulates parameter grads, returns
    /// `dL/dx`. Must be called after a matching `forward`.
    fn backward(&mut self, grad: &Tensor) -> Tensor;
    /// Visits all parameters in a stable order.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));
}

/// Gaussian init with std `s` (the ViT convention, s = 0.02).
pub fn gauss_init(rng: &mut StdRng, len: usize, s: f32) -> Vec<f32> {
    (0..len).map(|_| s * stats::gaussian::standard_normal(rng) as f32).collect()
}

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------

/// Fully connected layer `y = x Wᵀ + b`, `W: [out, in]`.
pub struct Linear {
    /// Weight matrix, `[out * in]` row-major with `out` rows.
    pub w: Param,
    /// Bias, length `out`.
    pub b: Param,
    in_dim: usize,
    out_dim: usize,
    cache_x: Option<Tensor>,
}

impl Linear {
    /// New layer with Gaussian(0, 0.02) weights and zero bias.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        Linear {
            w: Param::new(gauss_init(rng, out_dim * in_dim, 0.02)),
            b: Param::new(vec![0.0; out_dim]),
            in_dim,
            out_dim,
            cache_x: None,
        }
    }

    fn w_tensor(&self) -> Tensor {
        Tensor::from_vec(self.out_dim, self.in_dim, self.w.value.clone())
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        assert_eq!(x.cols, self.in_dim, "Linear input dim mismatch");
        let mut y = x.matmul_bt(&self.w_tensor());
        for r in 0..y.rows {
            for (v, b) in y.row_mut(r).iter_mut().zip(&self.b.value) {
                *v += b;
            }
        }
        self.cache_x = Some(x.clone());
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        // INVARIANT: the training loop always runs forward before backward.
        let x = self.cache_x.as_ref().expect("Linear::backward before forward");
        assert_eq!(grad.cols, self.out_dim);
        // dW = gradᵀ x ; db = column sums; dx = grad W.
        let dw = grad.matmul_at(x);
        for (g, d) in self.w.grad.iter_mut().zip(&dw.data) {
            *g += d;
        }
        for r in 0..grad.rows {
            for (g, d) in self.b.grad.iter_mut().zip(grad.row(r)) {
                *g += d;
            }
        }
        grad.matmul(&self.w_tensor())
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w);
        f(&mut self.b);
    }
}

// ---------------------------------------------------------------------------
// LayerNorm
// ---------------------------------------------------------------------------

/// Row-wise layer normalization with learned scale/shift.
pub struct LayerNorm {
    /// Scale γ.
    pub gamma: Param,
    /// Shift β.
    pub beta: Param,
    dim: usize,
    eps: f32,
    cache: Option<(Tensor, Vec<f32>, Vec<f32>)>, // normalized x̂, mean, inv_std
}

impl LayerNorm {
    /// New LayerNorm over `dim` features.
    pub fn new(dim: usize) -> Self {
        LayerNorm {
            gamma: Param::new(vec![1.0; dim]),
            beta: Param::new(vec![0.0; dim]),
            dim,
            eps: 1e-5,
            cache: None,
        }
    }
}

impl Layer for LayerNorm {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        assert_eq!(x.cols, self.dim);
        let mut out = Tensor::zeros(x.rows, x.cols);
        let mut xhat = Tensor::zeros(x.rows, x.cols);
        let mut means = vec![0.0f32; x.rows];
        let mut inv_stds = vec![0.0f32; x.rows];
        for r in 0..x.rows {
            let row = x.row(r);
            let mean = row.iter().sum::<f32>() / self.dim as f32;
            let var =
                row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / self.dim as f32;
            let inv = 1.0 / (var + self.eps).sqrt();
            means[r] = mean;
            inv_stds[r] = inv;
            for c in 0..self.dim {
                let h = (row[c] - mean) * inv;
                xhat.data[r * self.dim + c] = h;
                out.data[r * self.dim + c] = h * self.gamma.value[c] + self.beta.value[c];
            }
        }
        self.cache = Some((xhat, means, inv_stds));
        out
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        // INVARIANT: the training loop always runs forward before backward.
        let (xhat, _means, inv_stds) =
            // INVARIANT: forward always runs before backward.
            self.cache.as_ref().expect("LayerNorm::backward before forward");
        let n = self.dim as f32;
        let mut dx = Tensor::zeros(grad.rows, grad.cols);
        for r in 0..grad.rows {
            let g = grad.row(r);
            let h = xhat.row(r);
            // Accumulate parameter grads.
            for c in 0..self.dim {
                self.gamma.grad[c] += g[c] * h[c];
                self.beta.grad[c] += g[c];
            }
            // dx = (inv/n) * (n*gy - sum(gy) - x̂ * sum(gy*x̂)) with gy = g*γ.
            let mut sum_gy = 0.0f32;
            let mut sum_gyh = 0.0f32;
            for c in 0..self.dim {
                let gy = g[c] * self.gamma.value[c];
                sum_gy += gy;
                sum_gyh += gy * h[c];
            }
            let inv = inv_stds[r];
            for c in 0..self.dim {
                let gy = g[c] * self.gamma.value[c];
                dx.data[r * self.dim + c] = inv / n * (n * gy - sum_gy - h[c] * sum_gyh);
            }
        }
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }
}

// ---------------------------------------------------------------------------
// GELU
// ---------------------------------------------------------------------------

/// GELU activation (tanh approximation), stateless apart from the cache.
pub struct Gelu {
    cache_x: Option<Tensor>,
}

impl Gelu {
    /// New activation layer.
    pub fn new() -> Self {
        Gelu { cache_x: None }
    }

    #[inline]
    fn gelu(x: f32) -> f32 {
        const C: f32 = 0.797_884_6; // sqrt(2/pi)
        0.5 * x * (1.0 + (C * (x + 0.044715 * x * x * x)).tanh())
    }

    #[inline]
    fn dgelu(x: f32) -> f32 {
        const C: f32 = 0.797_884_6;
        let inner = C * (x + 0.044715 * x * x * x);
        let t = inner.tanh();
        let sech2 = 1.0 - t * t;
        0.5 * (1.0 + t) + 0.5 * x * sech2 * C * (1.0 + 3.0 * 0.044715 * x * x)
    }
}

impl Default for Gelu {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Gelu {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut y = x.clone();
        for v in &mut y.data {
            *v = Self::gelu(*v);
        }
        self.cache_x = Some(x.clone());
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        // INVARIANT: the training loop always runs forward before backward.
        let x = self.cache_x.as_ref().expect("Gelu::backward before forward");
        let mut dx = grad.clone();
        for (d, xv) in dx.data.iter_mut().zip(&x.data) {
            *d *= Self::dgelu(*xv);
        }
        dx
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

// ---------------------------------------------------------------------------
// Multi-head self-attention
// ---------------------------------------------------------------------------

/// Multi-head self-attention over `[B*T, D]` activations.
pub struct MultiHeadAttention {
    qkv: Linear,
    proj: Linear,
    heads: usize,
    dim: usize,
    tokens: usize,
    // Per (sample, head): cached Q, K, V ([T, dh]) and attention A ([T, T]).
    cache: Option<AttnCache>,
}

struct AttnCache {
    q: Vec<Tensor>,
    k: Vec<Tensor>,
    v: Vec<Tensor>,
    a: Vec<Tensor>,
    batch: usize,
}

impl MultiHeadAttention {
    /// New attention layer for `dim` features, `heads` heads and `tokens`
    /// tokens per sample.
    pub fn new(dim: usize, heads: usize, tokens: usize, rng: &mut StdRng) -> Self {
        assert_eq!(dim % heads, 0, "heads must divide dim");
        MultiHeadAttention {
            qkv: Linear::new(dim, 3 * dim, rng),
            proj: Linear::new(dim, dim, rng),
            heads,
            dim,
            tokens,
            cache: None,
        }
    }

    fn head_dim(&self) -> usize {
        self.dim / self.heads
    }
}

impl Layer for MultiHeadAttention {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        assert_eq!(x.cols, self.dim);
        assert_eq!(x.rows % self.tokens, 0);
        let batch = x.rows / self.tokens;
        let t = self.tokens;
        let dh = self.head_dim();
        let scale = 1.0 / (dh as f32).sqrt();

        let qkv = self.qkv.forward(x); // [B*T, 3D]

        let mut cache =
            AttnCache { q: Vec::new(), k: Vec::new(), v: Vec::new(), a: Vec::new(), batch };
        let mut concat = Tensor::zeros(x.rows, self.dim);

        for b in 0..batch {
            for h in 0..self.heads {
                // Gather Q, K, V for (b, h).
                let mut q = Tensor::zeros(t, dh);
                let mut k = Tensor::zeros(t, dh);
                let mut v = Tensor::zeros(t, dh);
                for ti in 0..t {
                    let row = qkv.row(b * t + ti);
                    let off = h * dh;
                    q.row_mut(ti).copy_from_slice(&row[off..off + dh]);
                    k.row_mut(ti).copy_from_slice(&row[self.dim + off..self.dim + off + dh]);
                    v.row_mut(ti)
                        .copy_from_slice(&row[2 * self.dim + off..2 * self.dim + off + dh]);
                }
                // Scores and row softmax.
                let mut a = q.matmul_bt(&k); // [T, T]
                a.scale(scale);
                for r in 0..t {
                    let row = a.row_mut(r);
                    let mx = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                    let mut sum = 0.0;
                    for val in row.iter_mut() {
                        *val = (*val - mx).exp();
                        sum += *val;
                    }
                    let inv = 1.0 / sum;
                    for val in row.iter_mut() {
                        *val *= inv;
                    }
                }
                let o = a.matmul(&v); // [T, dh]
                for ti in 0..t {
                    let dst = concat.row_mut(b * t + ti);
                    dst[h * dh..(h + 1) * dh].copy_from_slice(o.row(ti));
                }
                cache.q.push(q);
                cache.k.push(k);
                cache.v.push(v);
                cache.a.push(a);
            }
        }
        self.cache = Some(cache);
        self.proj.forward(&concat)
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let dconcat = self.proj.backward(grad);
        // INVARIANT: the training loop always runs forward before backward.
        let cache = self.cache.as_ref().expect("attention backward before forward");
        let batch = cache.batch;
        let t = self.tokens;
        let dh = self.head_dim();
        let scale = 1.0 / (dh as f32).sqrt();

        let mut dqkv = Tensor::zeros(batch * t, 3 * self.dim);
        for b in 0..batch {
            for h in 0..self.heads {
                let idx = b * self.heads + h;
                let (q, k, v, a) =
                    (&cache.q[idx], &cache.k[idx], &cache.v[idx], &cache.a[idx]);
                // dO for this head.
                let mut d_o = Tensor::zeros(t, dh);
                for ti in 0..t {
                    let src = dconcat.row(b * t + ti);
                    d_o.row_mut(ti).copy_from_slice(&src[h * dh..(h + 1) * dh]);
                }
                // O = A V.
                let d_a = d_o.matmul_bt(v); // [T, T]
                let d_v = a.matmul_at(&d_o); // [T, dh]
                // Softmax backward per row: dS = A ⊙ (dA − Σ dA⊙A).
                let mut d_s = Tensor::zeros(t, t);
                for r in 0..t {
                    let arow = a.row(r);
                    let darow = d_a.row(r);
                    let dot: f32 = arow.iter().zip(darow).map(|(x, y)| x * y).sum();
                    for c in 0..t {
                        d_s.data[r * t + c] = arow[c] * (darow[c] - dot);
                    }
                }
                d_s.scale(scale);
                // S = Q Kᵀ (scaled already): dQ = dS K, dK = dSᵀ Q.
                let d_q = d_s.matmul(k);
                let d_k = d_s.transpose().matmul(q);
                // Scatter into dqkv.
                for ti in 0..t {
                    let dst = dqkv.row_mut(b * t + ti);
                    let off = h * dh;
                    dst[off..off + dh]
                        .iter_mut()
                        .zip(d_q.row(ti))
                        .for_each(|(d, s)| *d += s);
                    dst[self.dim + off..self.dim + off + dh]
                        .iter_mut()
                        .zip(d_k.row(ti))
                        .for_each(|(d, s)| *d += s);
                    dst[2 * self.dim + off..2 * self.dim + off + dh]
                        .iter_mut()
                        .zip(d_v.row(ti))
                        .for_each(|(d, s)| *d += s);
                }
            }
        }
        self.qkv.backward(&dqkv)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.qkv.visit_params(f);
        self.proj.visit_params(f);
    }
}

// ---------------------------------------------------------------------------
// MLP (feed-forward)
// ---------------------------------------------------------------------------

/// Two-layer feed-forward block with GELU.
pub struct Mlp {
    fc1: Linear,
    act: Gelu,
    fc2: Linear,
}

impl Mlp {
    /// New MLP `dim -> hidden -> dim`.
    pub fn new(dim: usize, hidden: usize, rng: &mut StdRng) -> Self {
        Mlp {
            fc1: Linear::new(dim, hidden, rng),
            act: Gelu::new(),
            fc2: Linear::new(hidden, dim, rng),
        }
    }
}

impl Layer for Mlp {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let h = self.fc1.forward(x);
        let h = self.act.forward(&h);
        self.fc2.forward(&h)
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let g = self.fc2.backward(grad);
        let g = self.act.backward(&g);
        self.fc1.backward(&g)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.fc1.visit_params(f);
        self.fc2.visit_params(f);
    }
}

// ---------------------------------------------------------------------------
// Transformer block
// ---------------------------------------------------------------------------

/// Pre-norm transformer block:
/// `x + Attn(LN(x))` then `x + MLP(LN(x))`.
pub struct Block {
    ln1: LayerNorm,
    attn: MultiHeadAttention,
    ln2: LayerNorm,
    mlp: Mlp,
}

impl Block {
    /// New block (Fig. 2 of the paper).
    pub fn new(dim: usize, heads: usize, mlp_ratio: usize, tokens: usize, rng: &mut StdRng) -> Self {
        Block {
            ln1: LayerNorm::new(dim),
            attn: MultiHeadAttention::new(dim, heads, tokens, rng),
            ln2: LayerNorm::new(dim),
            mlp: Mlp::new(dim, dim * mlp_ratio, rng),
        }
    }
}

impl Layer for Block {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let h = self.ln1.forward(x);
        let h = self.attn.forward(&h);
        let mut y = x.clone();
        y.add_assign(&h);

        let h2 = self.ln2.forward(&y);
        let h2 = self.mlp.forward(&h2);
        let mut out = y;
        out.add_assign(&h2);
        out
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        // out = y + mlp(ln2(y))
        let g_branch = self.mlp.backward(grad);
        let g_branch = self.ln2.backward(&g_branch);
        let mut dy = grad.clone();
        dy.add_assign(&g_branch);

        // y = x + attn(ln1(x))
        let g2 = self.attn.backward(&dy);
        let g2 = self.ln1.backward(&g2);
        let mut dx = dy;
        dx.add_assign(&g2);
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.ln1.visit_params(f);
        self.attn.visit_params(f);
        self.ln2.visit_params(f);
        self.mlp.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stats::rng::seeded;

    /// Generic finite-difference gradient check for a layer: perturbs inputs
    /// and compares dL/dx where L = 0.5||y||².
    fn grad_check_input<L: Layer>(layer: &mut L, x: &Tensor, tol: f32) {
        let y = layer.forward(x);
        let dy = y.clone(); // dL/dy for L = 0.5||y||²
        let dx = layer.backward(&dy);

        let h = 1e-3f32;
        for i in (0..x.len()).step_by((x.len() / 24).max(1)) {
            let mut xp = x.clone();
            xp.data[i] += h;
            let lp = 0.5 * layer.forward(&xp).data.iter().map(|v| v * v).sum::<f32>();
            let mut xm = x.clone();
            xm.data[i] -= h;
            let lm = 0.5 * layer.forward(&xm).data.iter().map(|v| v * v).sum::<f32>();
            let fd = (lp - lm) / (2.0 * h);
            assert!(
                (dx.data[i] - fd).abs() < tol * (1.0 + fd.abs()),
                "input grad mismatch at {i}: {} vs {fd}",
                dx.data[i]
            );
        }
        // Restore the cache for subsequent use.
        let _ = layer.forward(x);
    }

    fn test_input(rows: usize, cols: usize) -> Tensor {
        Tensor::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|i| ((i as f32) * 0.37).sin() * 0.5).collect(),
        )
    }

    #[test]
    fn linear_gradcheck() {
        let mut rng = seeded(1);
        let mut l = Linear::new(5, 4, &mut rng);
        grad_check_input(&mut l, &test_input(3, 5), 2e-2);
    }

    #[test]
    fn linear_weight_gradcheck() {
        let mut rng = seeded(2);
        let mut l = Linear::new(4, 3, &mut rng);
        let x = test_input(2, 4);
        let y = l.forward(&x);
        let dy = y.clone();
        let _ = l.backward(&dy);
        let h = 1e-3f32;
        for i in 0..l.w.value.len() {
            let orig = l.w.value[i];
            l.w.value[i] = orig + h;
            let lp = 0.5 * l.forward(&x).data.iter().map(|v| v * v).sum::<f32>();
            l.w.value[i] = orig - h;
            let lm = 0.5 * l.forward(&x).data.iter().map(|v| v * v).sum::<f32>();
            l.w.value[i] = orig;
            let fd = (lp - lm) / (2.0 * h);
            assert!(
                (l.w.grad[i] - fd).abs() < 2e-2 * (1.0 + fd.abs()),
                "weight grad mismatch at {i}: {} vs {fd}",
                l.w.grad[i]
            );
        }
    }

    #[test]
    fn layernorm_normalizes() {
        let mut ln = LayerNorm::new(8);
        let x = test_input(4, 8);
        let y = ln.forward(&x);
        for r in 0..4 {
            let row = y.row(r);
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn layernorm_gradcheck() {
        let mut ln = LayerNorm::new(6);
        grad_check_input(&mut ln, &test_input(3, 6), 3e-2);
    }

    #[test]
    fn gelu_values_and_gradcheck() {
        assert!((Gelu::gelu(0.0)).abs() < 1e-7);
        assert!(Gelu::gelu(3.0) > 2.9);
        assert!(Gelu::gelu(-3.0).abs() < 0.02);
        let mut g = Gelu::new();
        grad_check_input(&mut g, &test_input(3, 5), 2e-2);
    }

    #[test]
    fn attention_gradcheck_small() {
        let mut rng = seeded(3);
        let mut attn = MultiHeadAttention::new(8, 2, 3, &mut rng);
        grad_check_input(&mut attn, &test_input(6, 8), 5e-2); // 2 samples × 3 tokens
    }

    #[test]
    fn attention_rows_softmax_normalized() {
        let mut rng = seeded(4);
        let mut attn = MultiHeadAttention::new(8, 2, 4, &mut rng);
        let x = test_input(4, 8);
        let _ = attn.forward(&x);
        let cache = attn.cache.as_ref().unwrap();
        for a in &cache.a {
            for r in 0..a.rows {
                let s: f32 = a.row(r).iter().sum();
                assert!((s - 1.0).abs() < 1e-5);
                assert!(a.row(r).iter().all(|&v| v >= 0.0));
            }
        }
    }

    #[test]
    fn mlp_gradcheck() {
        let mut rng = seeded(5);
        let mut mlp = Mlp::new(6, 12, &mut rng);
        grad_check_input(&mut mlp, &test_input(4, 6), 3e-2);
    }

    #[test]
    fn block_gradcheck() {
        let mut rng = seeded(6);
        let mut blk = Block::new(8, 2, 2, 2, &mut rng);
        grad_check_input(&mut blk, &test_input(4, 8), 6e-2); // 2 samples × 2 tokens
    }

    #[test]
    fn block_param_count_matches_formula() {
        let mut rng = seeded(7);
        let mut blk = Block::new(16, 4, 4, 4, &mut rng);
        let mut count = 0usize;
        blk.visit_params(&mut |p| count += p.value.len());
        let d = 16usize;
        let want = (3 * d * d + 3 * d) + (d * d + d) + (2 * (d * 4 * d) + 4 * d + d) + 4 * d;
        assert_eq!(count, want);
    }
}
