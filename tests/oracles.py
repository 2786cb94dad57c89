"""Independent reference implementations used only by the tests.

These deliberately avoid the library's computation paths: losses are
re-evaluated for finite differences, metrics are recounted brute-force from
raw label lists, and the fixed-point interpreter is a straight-line scalar
re-implementation with its own rounding code.
"""

import math

import numpy as np

from fcdsae import network, sparsity


def random_network(topology, seed):
    """He-init weights plus small nonzero biases.

    Zero biases put samples with an all-dead hidden layer exactly on the
    ReLU kink, where central differences straddle the corner; nonzero
    biases keep every pre-activation away from 0 at the probe scale.
    """
    rng = np.random.default_rng(seed)
    params = network.init_network(topology, seed=seed)
    for layer in params.layers:
        layer.biases += rng.uniform(0.01, 0.1, size=layer.biases.shape)
    return params


def total_loss_value(params, batch, targets, cfg):
    """J_total evaluated from scratch (forward + penalty), no gradient code."""
    trace = network.forward(params, batch)
    mse = network.mse_loss(trace.output, targets)
    summaries = [sparsity.average_activation(trace, i, cfg.clamp_eps)
                 for i in range(len(trace.post) - 1)]
    return sparsity.total_loss(mse, summaries, cfg)


def fd_gradients(params, batch, targets, cfg, h=1e-6):
    """Central finite differences of J_total w.r.t. every parameter."""
    grads = []
    for layer in params.layers:
        gw = np.zeros_like(layer.weights)
        for idx in np.ndindex(layer.weights.shape):
            orig = layer.weights[idx]
            layer.weights[idx] = orig + h
            plus = total_loss_value(params, batch, targets, cfg)
            layer.weights[idx] = orig - h
            minus = total_loss_value(params, batch, targets, cfg)
            layer.weights[idx] = orig
            gw[idx] = (plus - minus) / (2.0 * h)
        gb = np.zeros_like(layer.biases)
        for idx in np.ndindex(layer.biases.shape):
            orig = layer.biases[idx]
            layer.biases[idx] = orig + h
            plus = total_loss_value(params, batch, targets, cfg)
            layer.biases[idx] = orig - h
            minus = total_loss_value(params, batch, targets, cfg)
            layer.biases[idx] = orig
            gb[idx] = (plus - minus) / (2.0 * h)
        grads.append((gw, gb))
    return grads


def assert_grads_close(analytic, numeric, rel_tol=1e-4, abs_floor=1e-7):
    """Relative comparison with an absolute floor near zero."""
    for (aw, ab), (nw, nb) in zip(analytic, numeric):
        for a, n in [(aw, nw), (ab, nb)]:
            denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), abs_floor)
            err = np.abs(a - n) / denom
            assert err.max() <= rel_tol, f"gradient mismatch: max rel err {err.max()}"


def recount_metrics(true_labels, pred_labels):
    """Brute-force accuracy / weighted precision / recall / F1 from lists."""
    n = len(true_labels)
    pairs = list(zip(true_labels, pred_labels))
    accuracy = sum(1 for t, p in pairs if t == p) / n
    precision = recall = f1 = 0.0
    for c in range(3):
        support = sum(1 for t, _ in pairs if t == c)
        if support == 0:
            continue
        tp = sum(1 for t, p in pairs if t == c and p == c)
        pred_c = sum(1 for _, p in pairs if p == c)
        prec = tp / pred_c if pred_c else 0.0
        rec = tp / support
        fc = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        precision += (support / n) * prec
        recall += (support / n) * rec
        f1 += (support / n) * fc
    return accuracy, precision, recall, f1


def _round_half_away(value, shift):
    """Round value / 2^shift half away from zero, via divmod (not shifts)."""
    if shift == 0:
        return value
    div = 1 << shift
    q, r = divmod(abs(value), div)
    if 2 * r >= div:
        q += 1
    return q if value >= 0 else -q


def _sat(value, total_bits):
    lo = -(1 << (total_bits - 1))
    hi = (1 << (total_bits - 1)) - 1
    return lo if value < lo else hi if value > hi else value


def scalar_quantize(x, fmt):
    """One value to its raw word on Python floats: scale, saturate at the
    format's bounds (infinities included), round half away from zero."""
    lo = -(1 << (fmt.total_bits - 1))
    hi = (1 << (fmt.total_bits - 1)) - 1
    scaled = float(x) * 2.0 ** fmt.frac_bits
    if scaled <= lo:
        return lo
    if scaled >= hi:
        return hi
    raw = math.floor(abs(scaled) + 0.5)
    return -raw if scaled < 0 else raw


def scalar_q_forward(qm, frame):
    """Straight-line scalar interpreter of the fixed-point inference path."""
    from fcdsae.quantized import INPUT_FORMAT, SCALE_FORMAT

    f = qm.fmt.frac_bits
    total = qm.fmt.total_bits
    std_shift = INPUT_FORMAT.frac_bits + SCALE_FORMAT.frac_bits - f
    acts = []
    for i in range(len(frame)):
        diff = frame[i] - qm.std_mean[i]
        prod = diff * qm.std_invstd[i]
        acts.append(_sat(_round_half_away(prod, std_shift), total))
    for li in range(len(qm.weights)):
        nxt = []
        for j in range(len(qm.weights[li])):
            acc = qm.biases[li][j] * (1 << f)
            for k in range(len(acts)):
                acc = acc + qm.weights[li][j][k] * acts[k]
            y = _sat(_round_half_away(acc, f), total)
            if y < 0:
                y = 0
            nxt.append(y)
        acts = nxt
    best = 0
    for i in range(1, len(acts)):
        if acts[i] > acts[best]:
            best = i
    return acts, best


def scalar_dump_frames(qm, frames):
    """The frame dump text from the scalar interpreter: per frame its words,
    then its output words, one line each."""
    lines = []
    for frame in frames:
        words, _ = scalar_q_forward(qm, frame)
        lines.append(" ".join(str(w) for w in list(frame) + words) + "\n")
    return "".join(lines)
