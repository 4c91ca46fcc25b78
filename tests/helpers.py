"""Shared test utilities: independent oracles kept free of package
internals, small accessors that only tests need, and drivers of the
codec's private section coder.

The gradcheck here is the reference for every differentiability claim:
central finite differences of the scalar loss, compared against the
tape's gradients with a floored relative error.
"""

from __future__ import annotations

import numpy as np

import flowcodec.codec as C
import flowcodec.tensor as T
from flowcodec.rangecoder import MASK32, TOP, TOTAL, TOTAL_BITS, _tables
from flowcodec.tensor import Tensor, no_grad


def make_desk_corpus(rng: np.random.Generator, n: int, size: int = 32) -> list[np.ndarray]:
    """Synthetic RGB corpus: smooth ramps, soft blobs, blocks, mild noise.

    Structured enough for the conditionals to learn, cheap enough to
    train against in minutes.
    """
    images = []
    yy, xx = np.mgrid[0:size, 0:size] / size
    for _ in range(n):
        img = np.zeros((3, size, size))
        base = rng.uniform(40, 200, size=3)
        tilt = rng.uniform(-60, 60, size=(3, 2))
        for c in range(3):
            img[c] = base[c] + tilt[c, 0] * yy + tilt[c, 1] * xx
        for _ in range(int(rng.integers(1, 4))):
            cy, cx = rng.uniform(0.15, 0.85, size=2)
            radius = rng.uniform(0.08, 0.3)
            blob = np.exp(-(((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * radius**2)))
            img += rng.uniform(-70, 70, size=(3, 1, 1)) * blob
        if rng.random() < 0.5:
            top, left = rng.integers(0, size - 8, size=2)
            hgt, wid = rng.integers(4, 12, size=2)
            img[:, top : top + hgt, left : left + wid] += rng.uniform(-50, 50, size=(3, 1, 1))
        img += rng.normal(0, 2.0, size=img.shape)
        images.append(np.clip(img, 0, 255))
    return images


def naive_conv2d(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Direct nested-loop same-padded cross-correlation (the conv oracle)."""
    n, cin, h, w = x.shape
    cout, _, kh, kw = kernel.shape
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    out = np.zeros((n, cout, h, w), dtype=np.result_type(x, kernel))
    for b in range(n):
        for o in range(cout):
            for i in range(h):
                for j in range(w):
                    acc = 0.0
                    for c in range(cin):
                        for a in range(kh):
                            for d in range(kw):
                                acc += xp[b, c, i + a, j + d] * kernel[o, c, a, d]
                    out[b, o, i, j] = acc
            out[b, o] += bias[o]
    return out


def fd_gradient(loss_fn, param: Tensor, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar loss w.r.t. one parameter."""
    grad = np.zeros_like(param.data)
    flat = param.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = loss_fn()
        flat[i] = orig - h
        lo = loss_fn()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * h)
    return grad


def rel_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-8) -> float:
    """Max elementwise relative error with an absolute floor on the scale."""
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / scale))


def fd_floor(loss_value: float, h: float, tol: float) -> float:
    """Scale floor for FD comparisons at a relative tolerance `tol`.

    Central differences of a loss of magnitude L carry cancellation noise
    about L*eps/(2h); gradients below noise*5/tol can only be checked to
    that absolute level, so they are floored out of the relative metric.
    """
    noise = abs(loss_value) * 2.3e-16 / (2.0 * h)
    return max(1e-10, 5.0 * noise / tol)


def named_params(store) -> list:
    """A parameter store's (name, tensor) pairs in the order it serializes them."""
    return list(store._params.items())


def perturb_model(model, rng: np.random.Generator, scale: float = 0.1) -> None:
    """Randomize the zero-initialized head convolutions so couplings and
    conditionals become non-trivial (a stand-in for a trained model)."""
    for name, tensor in named_params(model.params):
        if ".head." in name:
            tensor.data = tensor.data + scale * rng.standard_normal(tensor.data.shape).astype(
                tensor.data.dtype
            )


def condition_for_gradcheck(model, rng: np.random.Generator) -> None:
    """Move the model to a point where central differences are valid.

    Heads get small random values (couplings and conditionals active) and
    every hidden bias gets a decisive +-U(1,2) offset so no relu unit sits
    within an FD step of its kink.  Pair with small-amplitude inputs so
    no bin probability reaches the clip floor.
    """
    perturb_model(model, rng, scale=0.05)
    for name, tensor in named_params(model.params):
        if name.endswith(".bias") and ".head." not in name and "prior" not in name:
            signs = rng.choice([-1.0, 1.0], size=tensor.data.shape)
            tensor.data = tensor.data + signs * rng.uniform(1.0, 2.0, size=tensor.data.shape)


def gradcheck(build_loss, params: list[Tensor], h: float = 1e-5, floor: float = 1e-8) -> float:
    """Compare tape gradients of build_loss() against central differences.

    build_loss must rebuild the graph from the current parameter values
    and return the scalar loss Tensor.  Returns the worst relative error
    across all parameters.
    """
    for p in params:
        p.zero_grad()
    loss = build_loss()
    loss.backward()
    analytic = [p.grad_array().copy() for p in params]

    worst = 0.0
    for p, g in zip(params, analytic):
        fd = fd_gradient(lambda: build_loss().item(), p, h=h)
        worst = max(worst, rel_error(g, fd, floor=floor))
    return worst


def detached_round(z: Tensor) -> Tensor:
    """z + stop_gradient(round(z) - z): same forward and backward as the
    straight-through round; used to cross-check the estimator contract."""
    residual = np.round(z.data) - z.data
    return T.add(z, Tensor(residual))


def reference_conditionals(model, level: int, zs: list) -> tuple[np.ndarray, np.ndarray]:
    """(mu, sigma) arrays of `level` ([z2, z1, z0] order), from features
    rebuilt by inverting every deeper level on its latent in `zs`.

    Written from the levels' inverses directly, as the oracle the codec's
    decoder chain is checked against.
    """
    with no_grad():
        h = None
        for i in range(len(model.levels) - 1, level, -1):
            h = model.levels[i].inverse(Tensor(np.asarray(zs[i], dtype=np.float64)), h)
        mu, sigma = model.conditioning_params(level, h)
    return mu.data, sigma.data


def num_elements(params) -> int:
    """Scalar count over every tensor of a ParamStore."""
    return sum(t.size for t in params.tensors())


def skip_boundary_sigma(delta: float, p_thresh: float) -> float:
    """Scale at which the grid-centered bin mass equals p_thresh.

    For mu on the grid the mass at the mean symbol is 2*sigmoid(d/(2s))-1;
    it exceeds p_thresh iff s lies below this boundary.
    """
    return float(delta) / (2.0 * np.log((1.0 + p_thresh) / (1.0 - p_thresh)))


def table_from_counts(k_min: int, freqs):
    """A FrequencyTable over symbols from k_min with the given integer
    counts, escape slot last, through the coder's own count checks."""
    freqs = np.asarray(freqs).reshape(-1)
    return _tables([k_min], freqs, np.array([freqs.size]))[0]


def cum(table) -> np.ndarray:
    """Cumulative counts of a FrequencyTable, one per slot plus the closing TOTAL."""
    return np.append(np.asarray(table.starts, dtype=np.uint32), TOTAL)


def freqs(table) -> np.ndarray:
    """Integer frequency of every slot of a FrequencyTable, escape slot last."""
    return np.diff(cum(table))


def reference_encode_symbols(symbols, table_of, tables) -> bytes:
    """Oracle for `rangecoder.encode_symbols`: each symbol's span, or its
    escape span and the raw value's two 16-bit halves, range-coded one
    span at a time with a carry-propagating cache and a run of pending
    0xFF bytes."""
    cums, spans = [], []
    starts_of = [cum(t) for t in tables]
    for k, u in zip(np.asarray(symbols).tolist(), np.asarray(table_of).tolist()):
        starts = starts_of[u]
        slot = k - tables[u].k_min
        if 0 <= slot < len(starts) - 2:
            cums.append(int(starts[slot]))
            spans.append(int(starts[slot + 1] - starts[slot]))
        else:
            raw = k & MASK32
            cums += [TOTAL - 1, raw >> TOTAL_BITS, raw & (TOTAL - 1)]
            spans += [1, 1, 1]
    return reference_encode_spans(cums, spans)


def reference_encode_spans(cums, freqs) -> bytes:
    """Range-code the spans [cum, cum + freq) of TOTAL in order and flush."""
    low, rng, cache, pending = 0, MASK32, 0, 0
    out = bytearray()
    for cum, freq in zip(cums, freqs):
        r = rng >> TOTAL_BITS
        low += r * cum
        rng = r * freq
        while rng < TOP:
            # move the top byte of low out; a 0xFF byte waits in pending
            # until a later carry decides whether it stays 0xFF or wraps to 0
            if low < 0xFF000000 or low > MASK32:
                carry = low >> 32
                out.append((cache + carry) & 0xFF)
                if pending:
                    out += bytes(((0xFF + carry) & 0xFF,)) * pending
                    pending = 0
                cache = (low >> 24) & 0xFF
            else:
                pending += 1
            low = (low << 8) & MASK32
            rng <<= 8
    # flush: the cache and pending bytes take the last carry, then low's four bytes
    carry = low >> 32
    out.append((cache + carry) & 0xFF)
    out += bytes(((0xFF + carry) & 0xFF,)) * pending
    out += (low & MASK32).to_bytes(4, "big")
    return bytes(out)


def largest_remainder_freqs(probs) -> np.ndarray:
    """Oracle for one row of `build_freq_tables`: an escape count and
    one-count floors reserved, the rest by largest remainder with one
    stable sort (ties to the lower index), the escape count last."""
    probs = np.asarray(probs, dtype=np.float64)
    budget = TOTAL - 1 - probs.size
    ideal = probs / probs.sum() * budget
    counts = np.floor(ideal).astype(np.int64) + 1
    order = np.argsort(-(ideal - np.floor(ideal)), kind="stable")
    counts[order[: budget + probs.size - int(counts.sum())]] += 1
    return np.append(counts, 1)


def encode_conditional(values, mu, sigma, delta, p_thresh):
    """Code flat `values` as one conditional section through the codec's
    encoder side: (payload, effective values after mean substitution,
    coded-symbol count)."""
    effective = np.array(values, dtype=np.float64).reshape(-1)
    section = C._conditional_section(np.reshape(mu, -1), np.reshape(sigma, -1), delta,
                                     p_thresh, 0, effective.size, effective)
    return C._encode_section(section, effective), effective, len(section.coded)


def decode_conditional(payload, mu, sigma, delta, p_thresh, context):
    """Mirror of `encode_conditional` through the codec's decoder side:
    (decoded values, decoded-symbol count)."""
    out = np.zeros(np.size(mu))
    section = C._conditional_section(np.reshape(mu, -1), np.reshape(sigma, -1), delta,
                                     p_thresh, 0, out.size, out)
    C._decode_section(payload, section, out, context)
    return out, len(section.coded)
