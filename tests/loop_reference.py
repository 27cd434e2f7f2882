"""Per-item reference implementations of the batched code paths.

Each loss function builds its graph the way the networks did before
batch, window position and attention head became array axes: one Python
loop iteration per transition, per trajectory position, per agent and per
head. `attention_params` creates attention weights in the per-head
layout that the fused `w_qkv` replaced. `mock_generate` samples the mock
backend's text one `Generator.choice` call per token. The equivalence
tests use them as the oracle for the batched code.
"""

import math
import warnings

import numpy as np

from econ.backends import Utterance, _derived_seed
from econ.beliefs import _FrozenView
from econ.kernel import Tensor, concat, stack


def attention_params(store, prefix, rng, in_dim, heads, model_dim):
    """The per-head layout: `{prefix}.w_q{h}`, `w_k{h}`, `w_v{h}` created
    head by head, then `{prefix}.w_o`."""
    head_dim = model_dim // heads
    for h in range(heads):
        for role in "qkv":
            store.create(f"{prefix}.w_{role}{h}", (in_dim, head_dim), rng, fan_in=in_dim)
    store.create(f"{prefix}.w_o", (model_dim, model_dim), rng, fan_in=model_dim)


def attention(x, params, heads, prefix):
    """Multi-head self-attention on a rank-2 input, one head at a time;
    head h's projection for each role is a column slice of `w_qkv`."""
    w_qkv = params[f"{prefix}.w_qkv"]
    model_dim = w_qkv.value.shape[1] // 3
    head_dim = model_dim // heads
    outputs = []
    for h in range(heads):
        q, k, v = (x @ w_qkv[:, r * model_dim + h * head_dim:r * model_dim + (h + 1) * head_dim]
                   for r in range(3))
        scores = (q @ k.swapaxes(0, 1)) * (1.0 / math.sqrt(head_dim))
        outputs.append(scores.softmax(axis=-1) @ v)
    return concat(outputs, axis=1) @ params[f"{prefix}.w_o"]


# -- mock backend ------------------------------------------------------------


def mock_generate(backend, request):
    """`MockBackend.generate` with one `rng.choice(n, p=probs)` per token."""
    if request.prompt_embedding is not None:
        temp = request.prompt_embedding.temperature
        pen = request.prompt_embedding.repetition_penalty
    else:
        temp, pen = 0.3, 0.5
    rng = np.random.default_rng(_derived_seed(
        backend.seed, request.role, request.query, request.strategy,
        round(temp, 6), round(pen, 6)))
    recent = np.zeros(len(backend.vocab))
    words = []
    for _ in range(backend.length):
        logits = backend.base_logits - 2.0 * pen * recent
        z = logits / max(temp, 1e-6)
        z = z - z.max()
        probs = np.exp(z)
        probs /= probs.sum()
        idx = int(rng.choice(len(backend.vocab), p=probs))
        recent *= 0.8
        recent[idx] += 1.0
        words.append(backend.vocab[idx])
    text = " ".join(words)
    return Utterance(text, backend.embed(text), len(words))


# -- belief network ------------------------------------------------------------


def encode_trajectory(net, traj, params):
    pairs = traj.pairs()
    if not pairs:
        return Tensor(np.zeros(net.cfg.belief_dim))
    acc = None
    for k, (action, obs) in enumerate(pairs):
        x = Tensor(np.concatenate([action, obs]))
        proj = (x @ params["traj.w_pair"] + params["traj.b_pair"]) * params["traj.pos"][k]
        acc = proj if acc is None else acc + proj
    return acc * (1.0 / len(pairs))


def local_q(net, traj, embedding, params):
    x = concat([encode_trajectory(net, traj, params), Tensor(np.asarray(embedding, float))])
    h = (x @ params["q.w1"] + params["q.b1"]).relu()
    return h.dot(params["q.w2"]) + params["q.b2"]


def max_target_q(net, traj):
    frozen = _FrozenView(net.target)
    return max(float(local_q(net, traj, e, frozen).value) for e in net.action_grid())


def td_loss(net, batch, gamma):
    total = None
    for tr in batch:
        bootstrap = 0.0 if tr.terminal else gamma * max_target_q(net, tr.next_traj)
        sq = (local_q(net, tr.traj, tr.action, net.params) - (tr.reward + bootstrap)).square()
        total = sq if total is None else total + sq
    return total * (1.0 / len(batch))


# -- encoder and mixing network -----------------------------------------------


def encode_group(enc, beliefs, params):
    x = stack([Tensor(np.asarray(b, float)) for b in beliefs])
    attended = attention(x, params, enc.heads, "enc")
    return stack([attended[i] for i in range(len(beliefs))]).mean(axis=0)


def mixing_forward(mix, local_qs, embeddings, group, params):
    """(Q_tot, per-agent feature list) for one item."""
    x = Tensor(np.asarray(embeddings, float))
    attended = attention(x, params, mix.heads, "emb")
    e = group if isinstance(group, Tensor) else Tensor(np.asarray(group, float))
    features = [(concat([attended[i], e]) @ params["fuse.w"] + params["fuse.b"]).relu()
                for i in range(mix.n_agents)]
    fbar = stack(features).mean(axis=0)
    q = Tensor(np.asarray(local_qs, float))
    b1 = fbar @ params["hyp.w_b1"] + params["hyp.b_b1"]
    gain = (fbar @ params["hyp.w_g"] + params["hyp.b_g"]).relu() + 1.0
    h1 = (q @ params["qpath.w1"] + b1).relu() * gain
    b2 = fbar.dot(params["hyp.w_b2"]) + params["hyp.b_b2"]
    return h1.dot(params["qpath.w2"]) + b2, features


def _cosine(u, v):
    if np.linalg.norm(u.value) == 0.0 or np.linalg.norm(v.value) == 0.0:
        warnings.warn("cosine_sim on a zero-norm vector; returning 0", RuntimeWarning)
        return Tensor(0.0)
    return u.dot(v) / (u.square().sum().sqrt() * v.square().sum().sqrt())


def mixing_loss(mix, batch, gamma, lam_m, lam_b):
    frozen = _FrozenView(mix.target)
    total = None
    for item in batch:
        q_tot, features = mixing_forward(mix, item.local_qs, item.embeddings,
                                         item.group, mix.params)
        bootstrap = 0.0
        if not item.terminal and item.next_local_q_maxes is not None:
            tgt, _ = mixing_forward(mix, item.next_local_q_maxes, item.next_embeddings,
                                    item.next_group, frozen)
            bootstrap = gamma * float(tgt.value)
        td = (item.r_tot + bootstrap - q_tot).square()
        c = Tensor(np.asarray(item.c_embed, float))
        sd = None
        for f in features:
            term = (1.0 - _cosine(f @ mix.params["sd.w"], c)).square()
            sd = term if sd is None else sd + term
        cons = None
        for i in range(mix.n_agents):
            term = (float(item.local_qs[i]) - q_tot).square()
            cons = term if cons is None else cons + term
        loss = td + sd * lam_b + lam_m * cons
        total = loss if total is None else total + loss
    return total * (1.0 / len(batch))


def encoder_td(orch, episodes, local_qs, embeddings, r_tot):
    """Mean over episodes of (r_tot - Q_tot)^2, group vectors on the
    encoder graph and the mixing parameters frozen."""
    frozen = _FrozenView(orch.mixing.params)
    total = None
    for k, rec in enumerate(episodes):
        group = encode_group(orch.encoder, rec.beliefs, orch.encoder.params)
        q_tot, _ = mixing_forward(orch.mixing, local_qs[k], embeddings[k], group, frozen)
        td = (float(r_tot[k]) - q_tot).square()
        total = td if total is None else total + td
    return total * (1.0 / len(episodes))


def gradients(loss_fn, store):
    """(loss value, {name: gradient}) of one backward pass; untouched
    parameters get a zero gradient."""
    store.zero_grads()
    loss = loss_fn()
    loss.backward()
    grads = {name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.value))
             for name, t in store.items()}
    store.zero_grads()
    return float(loss.value), grads


def assert_same_loss_and_gradients(batched_fn, reference_fn, store, tol=1e-10):
    value, grads = gradients(batched_fn, store)
    ref_value, ref_grads = gradients(reference_fn, store)
    assert abs(value - ref_value) <= tol
    for name, g in grads.items():
        np.testing.assert_allclose(g, ref_grads[name], rtol=0, atol=tol, err_msg=name)
