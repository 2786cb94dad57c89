"""Independent reference implementations used only by the tests.

These deliberately avoid the library's computation paths: losses are
re-evaluated for finite differences, metrics are recounted brute-force from
raw label lists, training is a straight per-tensor loop, and the fixed-point
interpreter is a straight-line scalar re-implementation with its own
rounding code.
"""

import math

import numpy as np

from fcdsae import network, sparsity
from fcdsae.network import LayerParams, NetworkParams


def he_layers(topology, rng):
    """init_network's draws for any topology: [He-uniform weights, zero
    biases] per layer."""
    layers = []
    for fan_in, fan_out in zip(topology[:-1], topology[1:]):
        limit = np.sqrt(6.0 / fan_in)
        layers.append([rng.uniform(-limit, limit, size=(fan_out, fan_in)),
                       np.zeros(fan_out)])
    return layers


def random_network(topology, seed):
    """He-init weights plus small nonzero biases, for any topology.

    Zero biases put samples with an all-dead hidden layer exactly on the
    ReLU kink, where central differences straddle the corner; nonzero
    biases keep every pre-activation away from 0 at the probe scale.
    """
    layers = he_layers(topology, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    return NetworkParams([LayerParams(w, b + rng.uniform(0.01, 0.1, b.shape))
                          for w, b in layers])


def total_loss_value(params, batch, targets, xi, psi):
    """J_total evaluated from scratch (forward + penalty), no gradient code."""
    acts = network.forward(params, batch)
    mse = network.mse_loss(acts[-1], targets)
    means = [sparsity.average_activation(a) for a in acts[1:-1]]
    return sparsity.total_loss(mse, means, xi, psi)


def fd_gradients(params, batch, targets, xi, psi, h=1e-6):
    """Central finite differences of J_total w.r.t. every parameter."""
    grads = []
    for layer in params.layers:
        gw = np.zeros_like(layer.weights)
        for idx in np.ndindex(layer.weights.shape):
            orig = layer.weights[idx]
            layer.weights[idx] = orig + h
            plus = total_loss_value(params, batch, targets, xi, psi)
            layer.weights[idx] = orig - h
            minus = total_loss_value(params, batch, targets, xi, psi)
            layer.weights[idx] = orig
            gw[idx] = (plus - minus) / (2.0 * h)
        gb = np.zeros_like(layer.biases)
        for idx in np.ndindex(layer.biases.shape):
            orig = layer.biases[idx]
            layer.biases[idx] = orig + h
            plus = total_loss_value(params, batch, targets, xi, psi)
            layer.biases[idx] = orig - h
            minus = total_loss_value(params, batch, targets, xi, psi)
            layer.biases[idx] = orig
            gb[idx] = (plus - minus) / (2.0 * h)
        grads.append((gw, gb))
    return grads


def backward(acts, params, targets, sparsity_rows=None):
    """network.backward into a new gradient buffer, which it returns."""
    grads = params.copy()
    network.backward(acts, params, targets, sparsity_rows, out=grads)
    return grads


def assert_grads_close(analytic, numeric, rel_tol=1e-4, abs_floor=1e-7):
    """Relative comparison with an absolute floor near zero; `analytic` is
    what backward returns, `numeric` what fd_gradients returns."""
    for layer, (nw, nb) in zip(analytic.layers, numeric):
        for a, n in [(layer.weights, nw), (layer.biases, nb)]:
            denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), abs_floor)
            err = np.abs(a - n) / denom
            assert err.max() <= rel_tol, f"gradient mismatch: max rel err {err.max()}"


def reference_train(cfg, data):
    """trainer.train as a straight per-tensor loop: the readable spec of the
    training step, which the trainer must match bit for bit.

    The same arithmetic in the same operand order: ReLU layers as
    np.maximum(x @ W.T + b, 0), fresh gradient arrays, the sparsity gradient
    as a (batch x width) matrix, and Adam one tensor at a time. Returns the
    best epoch's [weights, biases] per layer and its TrainReport.
    """
    from fcdsae import metrics, trainer
    from fcdsae.dataset import Standardizer

    xi, psi = cfg.xi, cfg.psi
    std = Standardizer.fit(data.train.features)
    x_train = std.transform_matrix(data.train.features)
    y_train = data.train.labels
    x_test = std.transform_matrix(data.test.features)
    y_test = data.test.labels
    t_train = np.eye(3)[y_train]

    layers = he_layers(network.DEFAULT_TOPOLOGY,
                       np.random.default_rng(cfg.seed))
    tensors = [t for layer in layers for t in layer]
    first = [np.zeros_like(t) for t in tensors]
    second = [np.zeros_like(t) for t in tensors]

    def forward(net, x):
        post = []
        for w, b in net:
            x = np.maximum(x @ w.T + b, 0.0)
            post.append(x)
        return post

    def hidden_means(post):
        raw = [h.mean(axis=0) for h in post[:-1]]
        eps = sparsity.CLAMP_EPS
        return raw, [np.clip(r, eps, 1.0 - eps) for r in raw]

    def mse(out, targets):
        diff = out - targets
        return float(np.sum(diff * diff) / diff.size)

    def penalty(clamped):
        return psi * float(sum(
            np.maximum(xi * np.log(xi / c)
                       + (1.0 - xi) * np.log((1.0 - xi) / (1.0 - c)), 0.0).sum()
            for c in clamped))

    shuffle_rng = np.random.default_rng(cfg.seed + 1)
    history = {"train": [], "val": [], "j": [], "mse": []}
    best_epoch, best_val, best = 0, -1.0, None
    step, n = 0, len(x_train)
    for epoch in range(cfg.max_epochs):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            xb, tb = x_train[idx], t_train[idx]
            post = forward(layers, xb)
            raw, clamped = hidden_means(post)
            grads = [None] * len(layers)
            delta = 2.0 * (post[-1] - tb) / post[-1].size
            for i in range(len(layers) - 1, -1, -1):
                if i < len(layers) - 1 and psi > 0.0:
                    row = (psi / len(idx)) * (
                        -xi / clamped[i] + (1.0 - xi) / (1.0 - clamped[i]))
                    row = np.where(raw[i] != clamped[i], 0.0, row)
                    delta = delta + np.broadcast_to(row, delta.shape)
                delta = delta * (post[i] > 0.0)
                prev = xb if i == 0 else post[i - 1]
                grads[i] = (delta.T @ prev, delta.sum(axis=0))
                if i > 0:
                    delta = delta @ layers[i][0]
            step += 1
            bc1, bc2 = 1.0 - 0.9 ** step, 1.0 - 0.999 ** step
            flat = [g for pair in grads for g in pair]
            for tensor, g, m, v in zip(tensors, flat, first, second):
                m *= 0.9
                m += (1.0 - 0.9) * g
                v *= 0.999
                v += (1.0 - 0.999) * (g * g)
                tensor -= cfg.lr * (m / bc1) / (np.sqrt(v / bc2) + 1e-8)

        post = forward(layers, x_train)
        epoch_mse = mse(post[-1], t_train)
        history["mse"].append(epoch_mse)
        history["j"].append(epoch_mse + penalty(hidden_means(post)[1]))
        history["train"].append(
            float(np.mean(np.argmax(post[-1], axis=1) == y_train)))
        val = float(np.mean(np.argmax(forward(layers, x_test)[-1], axis=1)
                            == y_test))
        history["val"].append(val)
        if val > best_val:
            best_val, best_epoch = val, epoch
            best = [[w.copy(), b.copy()] for w, b in layers]

    post = forward(best, x_test)
    cm = metrics.confusion(y_test.tolist(),
                           np.argmax(post[-1], axis=1).tolist())
    report = trainer.TrainReport(
        train_accuracy=history["train"], val_accuracy=history["val"],
        j_total=history["j"], mse=history["mse"], best_epoch=best_epoch,
        final_metrics=metrics.metric_block(cm), final_confusion=cm,
        final_mse=mse(post[-1], np.eye(3)[y_test]),
        mean_hidden_activation=float(
            np.concatenate(hidden_means(post)[0]).mean()),
        config=cfg)
    return best, report


def reader_parse_csv(path):
    """dataset.parse_csv as the plain row-by-row reader: csv.reader cells
    through float(), every cell checked, no fast path. A cell with a
    non-ASCII character or an `_` is not a number, though float() reads
    `1_0` as 10 and `\u0663` as 3. Returns the rows as lists of floats, or
    raises the ParseError parse_csv must raise."""
    import csv

    from fcdsae import ParseError
    from fcdsae.dataset import COLUMNS

    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if header != COLUMNS:
            missing = [c for c in COLUMNS if c not in header]
            raise ParseError(
                f"{path}: header mismatch; missing columns {missing}"
                if missing else f"{path}: header order must be {COLUMNS}")
        rows = []
        for row_num, row in enumerate(reader, start=2):
            if all(not c.strip() for c in row):
                continue
            if len(row) != len(COLUMNS):
                raise ParseError(f"{path} row {row_num}: expected "
                                 f"{len(COLUMNS)} cells, got {len(row)}")
            values = []
            for name, cell in zip(COLUMNS, row):
                try:
                    value = float(cell)
                except ValueError:
                    value = math.nan
                if not cell.isascii() or "_" in cell:
                    value = math.nan
                if not math.isfinite(value):
                    raise ParseError(f"{path} row {row_num}, column {name!r}: "
                                     f"not a finite number {cell!r}")
                values.append(value)
            rows.append(values)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return rows


def synthetic_hfr(z_power, z_airflow, z_watertemp, z_h2press, noise=0.0):
    """dataset.synthetic_matrix's HFR formula on scalars, the spec its array
    code must match bit for bit: a smooth function of standardized
    features, plus optional additive noise, clipped to the plausible band."""
    sig = (90.0
           + 1.3 * math.tanh(1.2 * z_power - 0.8 * z_airflow)
           + 0.7 * math.tanh(z_watertemp + 0.5 * z_h2press))
    return float(min(max(sig + noise, 85.0), 95.0))


def synthetic_draws(seed, n, noise_sigma):
    """synthetic_matrix's random draws, redone here: one uniform column
    per feature in FEATURE_COLUMNS order, then the normal noise. Returns the
    (n, 9) feature matrix, the noiseless HFR signal and the unclipped HFR."""
    from fcdsae.dataset import BASE_VALUES, FEATURE_COLUMNS

    rng = np.random.default_rng(seed)
    feats = np.stack([rng.uniform(0.9 * BASE_VALUES[c], 1.1 * BASE_VALUES[c],
                                  size=n) for c in FEATURE_COLUMNS], axis=1)
    noise = rng.normal(0.0, noise_sigma, size=n)
    base = np.array([BASE_VALUES[c] for c in FEATURE_COLUMNS])
    # uniform on [0.9b, 1.1b]: mean b, population std 0.1*b/sqrt(3)
    z = dict(zip(FEATURE_COLUMNS,
                 ((feats - base) / (0.1 * base / math.sqrt(3.0))).T))
    signal = (90.0 + 1.3 * np.tanh(1.2 * z["Power"] - 0.8 * z["AirFlow"])
              + 0.7 * np.tanh(z["WaterTempOut"] + 0.5 * z["H2PressIn"]))
    return feats, signal, signal + noise


def bayes_accuracy(seed, n, noise_sigma, indices):
    """Accuracy of the Bayes rule on the rows `indices` (0-based, so row
    t - 1) of synthetic_matrix(n, seed), its HFR noise at sigma noise_sigma > 0.

    The rule picks the class most likely given the noiseless signal; no
    classifier of the features beats it in expectation. HFR = signal +
    N(0, sigma^2) noise, so the class probabilities are normal CDFs at the
    89 and 91 thresholds; the generator's clip to [85, 95] moves no row
    across them."""
    _, signal, hfr = synthetic_draws(seed, n, noise_sigma)
    labels = (hfr >= 89.0).astype(int) + (hfr >= 91.0)
    cdf = np.vectorize(
        lambda x: 0.5 * (1.0 + math.erf(x / (noise_sigma * math.sqrt(2.0)))))
    below_89, below_91 = cdf(89.0 - signal), cdf(91.0 - signal)
    probs = np.stack([below_89, below_91 - below_89, 1.0 - below_91], axis=1)
    idx = np.asarray(indices)
    return float(np.mean(np.argmax(probs, axis=1)[idx] == labels[idx]))


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


def dequantize(raw, fmt):
    """A raw word's real value: raw * 2^-frac_bits."""
    return raw * 2.0 ** -fmt.frac_bits


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
    """Straight-line scalar interpreter of the fixed-point inference path.
    It reads every word as a Python int, so its arithmetic is unbounded
    whatever type the model or the frame stores them in."""
    from fcdsae.quantized import INPUT_FORMAT, SCALE_FORMAT

    f = qm.fmt.frac_bits
    total = qm.fmt.total_bits
    std_shift = INPUT_FORMAT.frac_bits + SCALE_FORMAT.frac_bits - f
    frame = [int(v) for v in frame]
    std_mean, std_invstd = qm.std_mean.tolist(), qm.std_invstd.tolist()
    weights = [w.tolist() for w in qm.weights]
    biases = [b.tolist() for b in qm.biases]
    acts = []
    for i in range(len(frame)):
        diff = frame[i] - std_mean[i]
        prod = diff * std_invstd[i]
        acts.append(_sat(_round_half_away(prod, std_shift), total))
    for li in range(len(weights)):
        nxt = []
        for j in range(len(weights[li])):
            acc = biases[li][j] * (1 << f)
            for k in range(len(acts)):
                acc = acc + weights[li][j][k] * acts[k]
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
