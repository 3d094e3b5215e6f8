"""Numeric operators of the trainer and the similarity builders, each with
one numpy/scipy implementation.

Data term. The residuals ``err = p_u . q_i - r`` of the training entries are
the values of a sparse matrix ``E`` with the train pattern, so the data
gradients are ``E @ Q`` (users) and ``Eᵀ @ P`` (items). Residual and
prediction passes gather factor rows with ``np.take`` in blocks of at most
``GATHER_FLOATS`` floats per operand, so each block copy is small enough for
the allocator to serve from memory the previous block freed, whatever the
number of entries and whatever ran earlier in the process.

Social term. With ``W[u, f] = s`` for each directed trust edge ``(u, f)``
of similarity ``s``, the penalty ``sum_e s_e ||p_u - p_f||^2`` equals
``tr(Pᵀ L P)`` for the graph Laplacian ``L = D - (W + Wᵀ)``, where ``D`` holds
the row sums of ``W + Wᵀ``. The gradient of ``(alpha/2) tr(Pᵀ L P)`` is
``alpha L @ P``, so one product gives both the gradient and the penalty
``(1/2) sum(P * alpha L @ P)``.

Training epoch. ``factorization.train`` builds one epoch object per call.
It holds the factors as one ``(M + N, k)`` block whose first M rows are
``P`` and the rest ``Q``, ``E`` (``residual_matrix``), its transpose
``Eᵀ``, which shares ``E.data``, and ``L`` from the similarity table, which
builds it once (``SimilarityTable.laplacian``). The object passes the two
row ranges of the block to the public names below, which see them as
separate factor arrays, and updates the block in place with one numpy call
per whole-model pass. Its ``terms`` writes the residuals into ``E``
(``squared_error_sum(..., out=E.data)``) and, when another step follows,
takes the social penalty from ``alpha L @ P``
(``social_gradient(..., laplacian=L)``). Its ``step`` reuses both:
``rating_gradients(..., resid=E, resid_t=Eᵀ)`` and that pull, added into
the block's ``lam * F``. A run of ``n`` epochs that stops at its epoch
budget thus calls ``squared_error_sum`` ``n + 1`` times and
``rating_gradients`` ``n`` times and, with the social term,
``social_gradient`` ``n`` times and ``social_penalty`` once.

Similarity. Pairs are taken in ascending source order (pairs given
otherwise are stably sorted once and their values scattered back) and cut
into blocks at source boundaries: at most ``EDGE_BLOCK`` pairs, and few
enough distinct sources that sources × span cells fit in a boolean marker
table of ``MARK_CELLS`` cells, where span is one past the largest item
index. A source with more than ``EDGE_BLOCK`` pairs spans several blocks.
Per block, the cells ``local_source * span + item`` of the items the
block's sources rated are set, the table is probed at ``local_source(pair)
* span + item`` for every entry of the pairs' destination rows, and only the
set cells are reset. Rows are stored in item order, so the hits, the
co-rated items, come out in (pair, ascending item) order, the order of a
merge of the two rows; a binary search among the block's ascending source
keys finds each hit's source entry. ``np.bincount`` over the hits then adds
per pair, in ascending item order whatever the blocking, the dot product,
the two norms over the overlap and the overlap size.

The public names below (``predict_pairs``, ``squared_error_sum``,
``rating_gradients``, ``social_penalty``, ``social_gradient``,
``pcc_edges``, ``vss_edges``) compose these operators from raw arrays; the
optional keyword arguments hand them operands a caller already built.
"""

import numpy as np

# factor-row floats a residual or prediction pass gathers at once per
# operand (rows per block: GATHER_FLOATS // k, at least one). A copy of at
# most 125 KiB stays under glibc's default 128 KiB mmap threshold, so it is
# served from the heap the previous block freed instead of fresh pages
# faulted in per block; smaller blocks pay more per-block call overhead
GATHER_FLOATS = 16000
# pairs the similarity builders score at once: a block's destination rows
# are gathered into a few arrays with one element per rated entry, so this
# bounds their working memory
EDGE_BLOCK = 2048
# cells of the similarity builders' marker table, one bool each (4 MiB): a
# block holds at most MARK_CELLS // span distinct sources, span being one
# past the largest item index, and at least one, so a wider span gets a
# table of span cells. Fewer cells cut a wide-span call into more blocks,
# each with a fixed cost: on a 40k-user, 139k-item store with 400k edges
# (2 vCPUs), a PCC table took about 205 ms at 2**21 cells, 145 ms at 2**22
# and 125 ms at 2**23
MARK_CELLS = 1 << 22


def _csr(*args, **kwargs):
    """``scipy.sparse.csr_matrix``, imported on first use: the import about
    doubles the package's start-up time, which ``socrec predict`` never needs."""
    from scipy.sparse import csr_matrix
    return csr_matrix(*args, **kwargs)


def gather_dots(user_f, item_f, users, items, out):
    """out[e] = user_f[users[e]] . item_f[items[e]]; returns out.

    An index outside the factor rows raises IndexError (``np.take``'s
    default ``mode="raise"``).
    """
    step = max(1, GATHER_FLOATS // user_f.shape[1])
    for lo in range(0, users.shape[0], step):
        hi = lo + step
        np.einsum("ej,ej->e", np.take(user_f, users[lo:hi], axis=0),
                  np.take(item_f, items[lo:hi], axis=0), out=out[lo:hi])
    return out


def residuals(user_f, item_f, users, items, values, out):
    """out[e] = user_f[users[e]] . item_f[items[e]] - values[e]; returns out."""
    gather_dots(user_f, item_f, users, items, out)
    out -= values
    return out


def sum_squares(x) -> float:
    """x . x for a 1-d array, summed by numpy rather than BLAS: a BLAS dot
    wakes the BLAS thread pool, whose spinning threads then slow the
    single-threaded gathers and sparse products of the next steps."""
    return float(np.einsum("e,e->", x, x))


def residual_matrix(user_ptr, items, num_items):
    """A CSR matrix ``E`` over the rating pattern (``user_ptr``, ``items``)
    whose values, in entry order, are for the caller to write in place into
    ``E.data``. ``E.T`` shares those values, so rebinding ``E.data`` instead
    would leave ``E.T`` stale."""
    return _csr((np.empty(items.shape[0]), items, user_ptr),
                shape=(user_ptr.shape[0] - 1, num_items))


def data_gradients(resid, user_f, item_f, resid_t=None):
    """Data-term gradients (resid @ item_f, residᵀ @ user_f) of a sparse
    residual matrix; ``resid_t`` is ``resid.T`` when the caller keeps it."""
    return resid @ item_f, (resid.T if resid_t is None else resid_t) @ user_f


def social_laplacian(num_users, edge_src, edge_dst, edge_sim):
    """D - (W + Wᵀ) as CSR, where W[src, dst] = sim per edge.

    Holding both (u, f) and (f, u) sums their weights into one entry.
    """
    w = np.asarray(edge_sim, dtype=np.float64)
    degree = (np.bincount(edge_src, w, minlength=num_users)
              + np.bincount(edge_dst, w, minlength=num_users))
    diag = np.arange(num_users)
    rows = np.concatenate((edge_src, edge_dst, diag))
    cols = np.concatenate((edge_dst, edge_src, diag))
    vals = np.concatenate((-w, -w, degree))
    return _csr((vals, (rows, cols)), shape=(num_users, num_users))


def _row_entries(user_ptr, row_len, users):
    """Entry positions of the rating rows of ``users``, concatenated, each
    row's length and the end of each row's run in them."""
    count = row_len[users]
    ends = np.cumsum(count)
    # an entry's position is its row's start plus its offset in the row
    return np.arange(ends[-1]) + np.repeat(user_ptr[users] + count - ends, count), count, ends


def _blocks(src, span):
    """Blocks of the pairs with ascending sources ``src``, as ``(lo, hi,
    first, stop)``: pairs ``lo:hi`` and their sources' runs ``first:stop``.
    A block holds at most ``EDGE_BLOCK`` pairs and ``MARK_CELLS // span``
    runs (at least one), and is cut where a run starts unless one run alone
    exceeds ``EDGE_BLOCK``. Also the run of each pair and the source of each
    run."""
    new_run = np.empty(src.size, dtype=bool)
    new_run[:1] = True
    np.not_equal(src[1:], src[:-1], out=new_run[1:])
    run = np.cumsum(new_run) - 1
    run_start = np.append(np.flatnonzero(new_run), src.size)
    max_runs = max(1, MARK_CELLS // span)
    blocks, lo = [], 0
    while lo < src.size:
        first = run[lo]
        hi = min(lo + EDGE_BLOCK, run_start[min(first + max_runs, run_start.size - 1)])
        if hi < src.size and not new_run[hi] and run_start[run[hi]] > lo:
            hi = run_start[run[hi]]
        blocks.append((lo, hi, first, run[hi - 1] + 1))
        lo = hi
    return blocks, run, src[new_run]


def _overlap_cosine(user_ptr, user_items, row_values, edge_src, edge_dst, min_overlap):
    """Per edge: cosine of the two users' rows over their co-rated items.

    ``row_values(take, owners)`` gives the values of the entries at positions
    ``take``, rated by users ``owners``. Edges with fewer than
    ``min_overlap`` co-rated items, or a zero denominator, give 0.
    """
    out = np.zeros(edge_src.shape[0])
    if not (out.size and user_items.size):
        return out
    order = None
    if np.any(edge_src[1:] < edge_src[:-1]):
        order = np.argsort(edge_src, kind="stable")
        edge_src, edge_dst = edge_src[order], edge_dst[order]
    span = int(user_items.max()) + 1
    row_len = np.diff(user_ptr)
    blocks, run, run_source = _blocks(edge_src, span)
    mark = np.zeros(span * max(stop - first for _, _, first, stop in blocks), dtype=bool)
    for lo, hi, first, stop in blocks:
        src, dst = edge_src[lo:hi], edge_dst[lo:hi]
        src_take, src_len, _ = _row_entries(user_ptr, row_len, run_source[first:stop])
        dst_take, dst_len, dst_ends = _row_entries(user_ptr, row_len, dst)
        # rows are stored in item order, so the source keys ascend and the
        # hits come out in (pair, item) order
        src_keys = np.repeat(np.arange(0, (stop - first) * span, span), src_len)
        src_keys += user_items[src_take]
        dst_keys = np.repeat((run[lo:hi] - first) * span, dst_len)
        dst_keys += user_items[dst_take]
        mark[src_keys] = True
        hits = np.flatnonzero(mark[dst_keys])
        mark[src_keys] = False
        if not hits.size:
            continue
        at_src = np.searchsorted(src_keys, dst_keys[hits])
        edge = np.searchsorted(dst_ends, hits, side="right")
        a = row_values(src_take[at_src], src[edge])
        b = row_values(dst_take[hits], dst[edge])
        denom = (np.sqrt(np.bincount(edge, a * a, src.size))
                 * np.sqrt(np.bincount(edge, b * b, src.size)))
        ok = denom > 0.0
        if min_overlap > 1:
            ok &= np.bincount(edge, minlength=src.size) >= min_overlap
        np.divide(np.bincount(edge, a * b, src.size), denom, out=out[lo:hi], where=ok)
    if order is not None:
        out[order] = out.copy()
    return out


def vss_edges(user_ptr, user_items, user_values, edge_src, edge_dst):
    """Cosine similarity over co-rated items, one value per directed edge,
    clipped to [0, 1]. An empty overlap or a zero denominator gives 0."""
    out = _overlap_cosine(user_ptr, user_items, lambda take, _: user_values[take],
                          edge_src, edge_dst, min_overlap=1)
    return np.clip(out, 0.0, 1.0, out=out)


def pcc_edges(user_ptr, user_items, user_values, user_means, edge_src, edge_dst):
    """Pearson correlation over co-rated items, one value per directed edge,
    clipped to [-1, 1].

    Deviations are taken against each user's mean over *all* their rated
    items. Overlaps with fewer than two items, or a zero denominator, give 0.
    """
    out = _overlap_cosine(user_ptr, user_items,
                          lambda take, owners: user_values[take] - user_means[owners],
                          edge_src, edge_dst, min_overlap=2)
    return np.clip(out, -1.0, 1.0, out=out)


def predict_pairs(user_f, item_f, users, items):
    """Raw inner-product predictions for (user, item) index pairs."""
    return gather_dots(user_f, item_f, users, items, np.empty(users.shape[0]))


def squared_error_sum(user_f, item_f, users, items, values, *, out=None):
    """Sum of squared residuals (r - p_u . q_i) over the given entries.

    With ``out`` (one float per entry), the residuals p_u . q_i - r are left
    in it.
    """
    if out is None:
        out = np.empty(users.shape[0])
    return sum_squares(residuals(user_f, item_f, users, items, values, out))


def rating_gradients(user_f, item_f, users, items, values, *, resid=None, resid_t=None):
    """Data-term gradients: d_user[u] += err * q_i and d_item[i] += err * p_u
    per entry, with err = p_u . q_i - r. Repeated pairs each contribute.

    ``resid`` is the residual matrix of these entries at these factors, when
    the caller already holds it (see ``residual_matrix``); the residual pass
    is then skipped. ``resid_t`` is ``resid.T``, when the caller keeps that
    too; it must share ``resid.data``.
    """
    if resid is None:
        err = residuals(user_f, item_f, users, items, values, np.empty(users.shape[0]))
        resid = _csr((err, (users, items)), shape=(user_f.shape[0], item_f.shape[0]))
    return data_gradients(resid, user_f, item_f, resid_t)


def social_penalty(user_f, edge_src, edge_dst, edge_sim, *, laplacian=None):
    """Sum over edges of sim * ||p_src - p_dst||^2, as tr(Pᵀ L P).

    ``laplacian`` is the edges' ``social_laplacian``, when the caller
    already built it.
    """
    if laplacian is None:
        laplacian = social_laplacian(user_f.shape[0], edge_src, edge_dst, edge_sim)
    return float(np.sum(user_f * (laplacian @ user_f)))


def social_gradient(user_f, edge_src, edge_dst, edge_sim, alpha, *, laplacian=None):
    """Gradient of (alpha/2) * sum sim * ||p_src - p_dst||^2, i.e. alpha L @ P.

    Each directed edge pulls both of its endpoints, which covers the
    out-link and in-link terms of the full derivative. ``laplacian`` is as
    in ``social_penalty``.
    """
    if laplacian is None:
        laplacian = social_laplacian(user_f.shape[0], edge_src, edge_dst, edge_sim)
    pull = laplacian @ user_f
    pull *= alpha
    return pull


def active_backend() -> str:
    """Name of the kernel backend: the numpy/scipy implementation above."""
    return "numpy"
