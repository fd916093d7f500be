/* Compiled inner loops for repro.core.kernels.
 *
 * Built on first use by ccore.py with
 *     cc -O2 -fPIC -shared -ffp-contract=off
 * and loaded through ctypes.  Every loop mirrors the reference
 * implementation named above it operation for operation: the same double
 * expressions in the same order (no FMA contraction, no reassociation at
 * -O2), the same strict-< first-minimum tie-breaks, the same traversal
 * order.  Python int -> C double conversions are exact for the magnitudes
 * involved, so the compiled results are bit-identical to the interpreter's.
 */

#include <float.h>
#include <math.h>
#include <stdlib.h>

#define MAX_COLORS 64 /* mirrored by repro.core.kernels.MAX_COMPILED_COLORS */

/* Greedy coloring walk (greedy_coloring.greedy_color_graph).
 *
 * colors[] must arrive initialised to -1; order[] is the processing order
 * over vertex ranks; CSR rows are sorted ascending.
 */
void repro_greedy_walk(
    int n, int num_colors, double alpha, const int *order,
    const int *conf_start, const int *conf_adj,
    const int *stitch_start, const int *stitch_adj,
    int *colors)
{
    int conflict_hits[MAX_COLORS];
    int stitch_hits[MAX_COLORS];
    for (int k = 0; k < n; k++) {
        int rank = order[k];
        for (int c = 0; c < num_colors; c++) {
            conflict_hits[c] = 0;
            stitch_hits[c] = 0;
        }
        for (int i = conf_start[rank]; i < conf_start[rank + 1]; i++) {
            int other = colors[conf_adj[i]];
            if (other >= 0)
                conflict_hits[other] += 1;
        }
        int colored_stitches = 0;
        for (int i = stitch_start[rank]; i < stitch_start[rank + 1]; i++) {
            int other = colors[stitch_adj[i]];
            if (other >= 0) {
                stitch_hits[other] += 1;
                colored_stitches += 1;
            }
        }
        int best = 0;
        double best_cost =
            conflict_hits[0] + alpha * (double)(colored_stitches - stitch_hits[0]);
        for (int c = 1; c < num_colors; c++) {
            double cost =
                conflict_hits[c] + alpha * (double)(colored_stitches - stitch_hits[c]);
            if (cost < best_cost) {
                best_cost = cost;
                best = c;
            }
        }
        colors[rank] = best;
    }
}

/* Linear-kernel greedy walk (LinearColoring._color_in_order).
 *
 * Same hit counters as the greedy walk plus the color-friendly counter;
 * the color pick replicates the python tuple comparison
 * (conflict_hits, alpha * stitch_mismatch, -friend_hits) with strict <.
 */
void repro_linear_walk(
    int num_colors, double alpha, int use_friendly,
    const int *order, int order_len,
    const int *conf_start, const int *conf_adj,
    const int *stitch_start, const int *stitch_adj,
    const int *friend_start, const int *friend_adj,
    int *colors)
{
    int conflict_hits[MAX_COLORS];
    int stitch_hits[MAX_COLORS];
    int friend_hits[MAX_COLORS];
    for (int k = 0; k < order_len; k++) {
        int rank = order[k];
        for (int c = 0; c < num_colors; c++) {
            conflict_hits[c] = 0;
            stitch_hits[c] = 0;
            friend_hits[c] = 0;
        }
        for (int i = conf_start[rank]; i < conf_start[rank + 1]; i++) {
            int other = colors[conf_adj[i]];
            if (other >= 0)
                conflict_hits[other] += 1;
        }
        int colored_stitches = 0;
        for (int i = stitch_start[rank]; i < stitch_start[rank + 1]; i++) {
            int other = colors[stitch_adj[i]];
            if (other >= 0) {
                stitch_hits[other] += 1;
                colored_stitches += 1;
            }
        }
        if (use_friendly) {
            for (int i = friend_start[rank]; i < friend_start[rank + 1]; i++) {
                int other = colors[friend_adj[i]];
                if (other >= 0)
                    friend_hits[other] += 1;
            }
        }
        int best = 0;
        int best_conf = conflict_hits[0];
        double best_stitch = alpha * (double)(colored_stitches - stitch_hits[0]);
        int best_friend = -friend_hits[0];
        for (int c = 1; c < num_colors; c++) {
            int conf = conflict_hits[c];
            double stitch = alpha * (double)(colored_stitches - stitch_hits[c]);
            int friendly = -friend_hits[c];
            /* python tuple <: lexicographic with strict inequality */
            if (conf < best_conf ||
                (conf == best_conf &&
                 (stitch < best_stitch ||
                  (stitch == best_stitch && friendly < best_friend)))) {
                best_conf = conf;
                best_stitch = stitch;
                best_friend = friendly;
                best = c;
            }
        }
        colors[rank] = best;
    }
}

/* Kernel-subgraph score (evaluation.evaluate): conflict/stitch counts
 * over the flat uint32 edge-pair arrays, uncolored (-1) endpoints skipped. */
void repro_evaluate(
    const unsigned int *conf_edges, int conf_len,
    const unsigned int *stitch_edges, int stitch_len,
    const int *colors, int *conflicts_out, int *stitches_out)
{
    int conflicts = 0;
    for (int i = 0; i < conf_len; i += 2) {
        int cu = colors[conf_edges[i]];
        if (cu >= 0 && cu == colors[conf_edges[i + 1]])
            conflicts += 1;
    }
    int stitches = 0;
    for (int i = 0; i < stitch_len; i += 2) {
        int cu = colors[stitch_edges[i]];
        int cv = colors[stitch_edges[i + 1]];
        if (cu >= 0 && cv >= 0 && cu != cv)
            stitches += 1;
    }
    *conflicts_out = conflicts;
    *stitches_out = stitches;
}

/* Local recolor cost (refinement.local_color_cost). */
static double local_cost(
    int rank, int color, double alpha, const int *colors,
    const int *conf_start, const int *conf_adj,
    const int *stitch_start, const int *stitch_adj)
{
    int conflicts = 0;
    for (int i = conf_start[rank]; i < conf_start[rank + 1]; i++) {
        if (colors[conf_adj[i]] == color)
            conflicts += 1;
    }
    int stitches = 0;
    for (int i = stitch_start[rank]; i < stitch_start[rank + 1]; i++) {
        int other = colors[stitch_adj[i]];
        if (other >= 0 && other != color)
            stitches += 1;
    }
    return conflicts + alpha * (double)stitches;
}

/* One greedy improvement pass (refinement.refine_coloring),
 * including the reference's `cost < best_cost - 1e-12` epsilon. */
void repro_refine_pass(
    int num_colors, double alpha,
    const int *kernel, int kernel_len,
    const int *conf_start, const int *conf_adj,
    const int *stitch_start, const int *stitch_adj,
    int *colors)
{
    for (int k = 0; k < kernel_len; k++) {
        int rank = kernel[k];
        int current = colors[rank];
        int best_color = current;
        double best_cost = local_cost(
            rank, current, alpha, colors,
            conf_start, conf_adj, stitch_start, stitch_adj);
        for (int color = 0; color < num_colors; color++) {
            if (color == current)
                continue;
            double cost = local_cost(
                rank, color, alpha, colors,
                conf_start, conf_adj, stitch_start, stitch_adj);
            if (cost < best_cost - 1e-12) {
                best_cost = cost;
                best_color = color;
            }
        }
        if (best_color != current)
            colors[rank] = best_color;
    }
}

/* Pop the peel stack (simplify.legal_color loop): stack entries are
 * visited last-pushed-first; each takes a stitch-preferred legal color. */
void repro_reinsert(
    int num_colors,
    const int *stack, int stack_len,
    const int *conf_start, const int *conf_adj,
    const int *stitch_start, const int *stitch_adj,
    int *colors)
{
    for (int k = stack_len - 1; k >= 0; k--) {
        int rank = stack[k];
        unsigned long long blocked = 0;
        for (int i = conf_start[rank]; i < conf_start[rank + 1]; i++) {
            int other = colors[conf_adj[i]];
            if (other >= 0)
                blocked |= 1ULL << other;
        }
        int picked = -1;
        for (int i = stitch_start[rank]; i < stitch_start[rank + 1]; i++) {
            int color = colors[stitch_adj[i]];
            if (color >= 0 && !(blocked & (1ULL << color))) {
                picked = color;
                break;
            }
        }
        if (picked < 0) {
            for (int color = 0; color < num_colors; color++) {
                if (!(blocked & (1ULL << color))) {
                    picked = color;
                    break;
                }
            }
        }
        if (picked < 0) {
            int damage[MAX_COLORS];
            for (int color = 0; color < num_colors; color++)
                damage[color] = 0;
            for (int i = conf_start[rank]; i < conf_start[rank + 1]; i++) {
                int other = colors[conf_adj[i]];
                if (other >= 0)
                    damage[other] += 1;
            }
            picked = 0;
            for (int color = 1; color < num_colors; color++) {
                if (damage[color] < damage[picked])
                    picked = color;
            }
        }
        colors[rank] = picked;
    }
}

/* Iterative low-degree vertex removal (simplify.peel_low_degree_vertices).
 *
 * Fills alive/cdeg/sdeg/fdeg and the removal stack; returns the stack
 * length, or -1 on allocation failure (the caller raises MemoryError).
 * The queue is LIFO with a pending guard, so it never exceeds n entries —
 * the exact traversal (including the sorted merged neighbour re-enqueue
 * order) matches the reference loop.
 */
int repro_peel(
    int n, int num_colors, int max_stitch_degree,
    const int *conf_start, const int *conf_adj,
    const int *stitch_start, const int *stitch_adj,
    const int *friend_start, const int *friend_adj,
    signed char *alive, int *cdeg, int *sdeg, int *fdeg,
    int *stack)
{
    unsigned char *pending = calloc((size_t)n + 1, 1);
    int *queue = malloc(((size_t)n + 1) * sizeof(int));
    int *conflict_row = malloc(((size_t)n + 1) * sizeof(int));
    int *stitch_row = malloc(((size_t)n + 1) * sizeof(int));
    int *neighbours = malloc((2 * (size_t)n + 2) * sizeof(int));
    if (!pending || !queue || !conflict_row || !stitch_row || !neighbours) {
        free(pending);
        free(queue);
        free(conflict_row);
        free(stitch_row);
        free(neighbours);
        return -1;
    }
    for (int r = 0; r < n; r++) {
        alive[r] = 1;
        cdeg[r] = conf_start[r + 1] - conf_start[r];
        sdeg[r] = stitch_start[r + 1] - stitch_start[r];
        fdeg[r] = friend_start[r + 1] - friend_start[r];
    }
    int top = 0;
    for (int r = 0; r < n; r++) {
        if (cdeg[r] < num_colors && sdeg[r] < max_stitch_degree) {
            pending[r] = 1;
            queue[top++] = r;
        }
    }
    int stack_len = 0;
    while (top > 0) {
        int rank = queue[--top];
        pending[rank] = 0;
        if (!alive[rank])
            continue;
        if (cdeg[rank] >= num_colors || sdeg[rank] >= max_stitch_degree)
            continue;
        int crow_len = 0;
        for (int i = conf_start[rank]; i < conf_start[rank + 1]; i++) {
            int other = conf_adj[i];
            if (alive[other])
                conflict_row[crow_len++] = other;
        }
        int srow_len = 0;
        for (int i = stitch_start[rank]; i < stitch_start[rank + 1]; i++) {
            int other = stitch_adj[i];
            if (alive[other])
                stitch_row[srow_len++] = other;
        }
        /* merge two sorted duplicate-free rows, deduplicating */
        int ni = 0, ci = 0, si = 0;
        while (ci < crow_len && si < srow_len) {
            int a = conflict_row[ci], b = stitch_row[si];
            if (a < b) {
                neighbours[ni++] = a;
                ci++;
            } else if (b < a) {
                neighbours[ni++] = b;
                si++;
            } else {
                neighbours[ni++] = a;
                ci++;
                si++;
            }
        }
        while (ci < crow_len)
            neighbours[ni++] = conflict_row[ci++];
        while (si < srow_len)
            neighbours[ni++] = stitch_row[si++];
        alive[rank] = 0;
        stack[stack_len++] = rank;
        for (int i = 0; i < crow_len; i++)
            cdeg[conflict_row[i]] -= 1;
        for (int i = 0; i < srow_len; i++)
            sdeg[stitch_row[i]] -= 1;
        for (int i = friend_start[rank]; i < friend_start[rank + 1]; i++) {
            int other = friend_adj[i];
            if (alive[other])
                fdeg[other] -= 1;
        }
        for (int i = 0; i < ni; i++) {
            int other = neighbours[i];
            if (!pending[other] && alive[other] &&
                cdeg[other] < num_colors && sdeg[other] < max_stitch_degree) {
                pending[other] = 1;
                queue[top++] = other;
            }
        }
    }
    free(pending);
    free(queue);
    free(conflict_row);
    free(stitch_row);
    free(neighbours);
    return stack_len;
}

/* Branch-and-bound DFS (backtrack.search_merged_graph).
 *
 * Position-space packed earlier-edge CSR; best_cost_io carries the incumbent
 * cost in and the best cost out; best_pos carries the incumbent assignment
 * in and the best assignment out (both in position space).  Returns the
 * expansion count; *completed_out is the budget-contract flag.
 *
 * The DFS stack holds at most one pending sibling per depth plus one child,
 * so n + 2 entries always suffice.
 */
typedef struct {
    int depth;
    int color;
    double cost;
    int max_used;
} StackEntry;

long long repro_backtrack_search(
    int n, int num_colors, double alpha, long long expansion_limit,
    const int *edge_start, const int *edge_pos,
    const double *edge_cw, const double *edge_sw,
    double *best_cost_io, int *best_pos, int *completed_out)
{
    int *assignment = malloc((size_t)n * sizeof(int));
    StackEntry *stack = malloc((size_t)(n + 2) * sizeof(StackEntry));
    if (assignment == NULL || stack == NULL) {
        free(assignment);
        free(stack);
        *completed_out = -1; /* the caller raises MemoryError */
        return -1;
    }
    for (int p = 0; p < n; p++)
        assignment[p] = -1;

    double best_cost = *best_cost_io;
    int dirty = 0;
    long long expansions = 0;
    int completed = 1;
    int max_fresh = num_colors - 1;
    int top = 0;
    stack[top].depth = 0;
    stack[top].color = 0;
    stack[top].cost = 0.0;
    stack[top].max_used = -1;
    top = 1;

    while (top > 0) {
        top -= 1;
        int depth = stack[top].depth;
        int color = stack[top].color;
        double cost_so_far = stack[top].cost;
        int max_used = stack[top].max_used;
        while (dirty > depth) {
            dirty -= 1;
            assignment[dirty] = -1;
        }
        int limit_color = max_used + 1;
        if (limit_color > max_fresh)
            limit_color = max_fresh;
        if (color > limit_color)
            continue;
        if (expansions >= expansion_limit) {
            completed = 0;
            break;
        }
        if (color + 1 <= limit_color) {
            stack[top].depth = depth;
            stack[top].color = color + 1;
            stack[top].cost = cost_so_far;
            stack[top].max_used = max_used;
            top += 1;
        }
        expansions += 1;
        double added = 0.0;
        for (int i = edge_start[depth]; i < edge_start[depth + 1]; i++) {
            int other_color = assignment[edge_pos[i]];
            if (other_color < 0)
                continue;
            if (other_color == color)
                added += edge_cw[i];
            else
                added += alpha * edge_sw[i];
        }
        double new_cost = cost_so_far + added;
        if (new_cost >= best_cost)
            continue;
        assignment[depth] = color;
        dirty = depth + 1;
        if (depth + 1 == n) {
            best_cost = new_cost;
            for (int p = 0; p < n; p++)
                best_pos[p] = assignment[p];
            continue;
        }
        stack[top].depth = depth + 1;
        stack[top].color = 0;
        stack[top].cost = new_cost;
        stack[top].max_used = max_used >= color ? max_used : color;
        top += 1;
    }

    free(assignment);
    free(stack);
    *best_cost_io = best_cost;
    *completed_out = completed;
    return expansions;
}

/* ------------------------------------------------------------------------
 * SDP relaxation loop (repro.opt.sdp.VectorProgramSolver._minimise_numpy).
 *
 * Every float matches the numpy loop, so the sums below replicate the
 * summation orders of the numpy build, checked against it once per process by
 * repro.core.kernels.sdp_core:
 *
 *   row_dot       np.einsum("ij,ij->i") per row: two lane accumulators
 *                 (even/odd columns) from 0.0; each 8-column block adds its
 *                 column pairs in the order 3, 2, 1, 0; the tail goes in
 *                 pairs with a missing odd column counting as 0*0; the
 *                 result is 0.0 + (lane0 + lane1).
 *   pairwise_sum  numpy's pairwise summation, as used by ndarray.sum()
 *                 and np.add.reduce; the reductions add it onto 0.0.
 */

static double row_dot(const double *a, const double *b, int dim)
{
    double lane0 = 0.0, lane1 = 0.0;
    int j = 0;
    for (; dim - j >= 8; j += 8) {
        for (int pair = 3; pair >= 0; pair--) {
            lane0 = a[j + 2 * pair] * b[j + 2 * pair] + lane0;
            lane1 = a[j + 2 * pair + 1] * b[j + 2 * pair + 1] + lane1;
        }
    }
    for (; j < dim; j += 2) {
        lane0 = a[j] * b[j] + lane0;
        lane1 = (j + 1 < dim ? a[j + 1] * b[j + 1] : 0.0 * 0.0) + lane1;
    }
    return 0.0 + (lane0 + lane1);
}

static double pairwise_sum(const double *a, long long n)
{
    if (n < 8) {
        double res = 0.0;
        for (long long i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        for (int k = 0; k < 8; k++)
            r[k] = a[k];
        long long i = 8;
        for (; i < n - (n % 8); i += 8)
            for (int k = 0; k < 8; k++)
                r[k] += a[i + k];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    long long half = n / 2;
    half -= half % 8;
    return pairwise_sum(a, half) + pairwise_sum(a + half, n - half);
}

/* Load-time probe hooks: row dots of a and b, 0.0 + pairwise row sums of a. */
void repro_sdp_probe_rows(
    int n, int dim, const double *a, const double *b, double *dots, double *sums)
{
    for (int i = 0; i < n; i++) {
        dots[i] = row_dot(a + (size_t)i * dim, b + (size_t)i * dim, dim);
        sums[i] = 0.0 + pairwise_sum(a + (size_t)i * dim, dim);
    }
}

double repro_pairwise_sum(const double *a, long long n)
{
    return 0.0 + pairwise_sum(a, n);
}

enum { GRAD_CONTINUE, GRAD_STOP, GRAD_UNDECIDED };

/* Decide the numpy loop's `sqrt(t.dot(t)) / n < tolerance`.
 *
 * numpy's t.dot(t) is a BLAS ddot whose summation order depends on the
 * CPU, so it is not replicated.  Both it and `sum_sq` approximate the same
 * exact sum of N = n*dim squares with relative error below N*eps/2 while
 * the squares stay normal numbers; through sqrt and the division the two
 * norms then differ by less than (N + 4) * eps/2 relative.  Outside twice
 * that margin both sides of the comparison agree; inside it (and for NaN,
 * or a threshold so small that subnormal squares could matter) the caller
 * redoes the test with numpy.
 */
static int grad_norm_decision(double sum_sq, int n, int dim, double tolerance)
{
    if (!(tolerance > 0.0))
        return GRAD_CONTINUE; /* a norm is never < 0 (NaN included) */
    if (tolerance * n < 1e-140)
        return GRAD_UNDECIDED;
    if (sum_sq < 1e-300)
        return GRAD_STOP; /* both norms are below 1e-150 / n < tolerance */
    double margin = ((double)n * dim + 4.0) * DBL_EPSILON;
    double grad_norm = sqrt(sum_sq) / n;
    if (grad_norm < tolerance * (1.0 - margin))
        return GRAD_STOP;
    if (grad_norm >= tolerance * (1.0 + margin))
        return GRAD_CONTINUE;
    return GRAD_UNDECIDED;
}

/* Projected gradient descent with a fixed penalty weight.
 *
 * vectors (n x dim, row-major) is updated in place.  conflict and stitch
 * hold mc and ms endpoint pairs.  tangent (n x dim) and scratch
 * (mc + max(mc, ms) + dim doubles) are work buffers.  *iterations and
 * state[2] = {previous objective value, current objective value} carry the
 * loop across calls.
 *
 * Returns 0 when the loop has finished and 1 when the gradient-norm test
 * is undecided (see grad_norm_decision): tangent then holds the iteration's
 * tangent.  The caller either stops, or calls again with resume = 1 to
 * take the step and continue.
 */
int repro_sdp_minimise(
    int n, int dim, int mc, int ms,
    const long long *conflict, const long long *stitch,
    double alpha, double lower_bound, double penalty, double rate,
    double tolerance, int max_iterations, int resume,
    double *vectors, double *tangent, double *scratch,
    int *iterations, double *state)
{
    double *scale = scratch;        /* mc: -2 * penalty * violation */
    double *terms = scratch + mc;   /* max(mc, ms): summed per-edge terms */
    double *row = terms + (mc > ms ? mc : ms); /* dim: squares of one row */
    double penalty_factor = -2.0 * penalty;
    double minus_alpha = -alpha;
    size_t cells = (size_t)n * dim;
    double previous = state[0];
    double value = state[1];
    int it = *iterations;

    for (;;) {
        if (!resume) {
            if (it >= max_iterations)
                break;
            it++;
            value = 0.0;
            if (mc) {
                for (int e = 0; e < mc; e++)
                    terms[e] = row_dot(vectors + conflict[2 * e] * dim,
                                       vectors + conflict[2 * e + 1] * dim, dim);
                value += 0.0 + pairwise_sum(terms, mc);
                for (int e = 0; e < mc; e++) {
                    double violation = lower_bound - terms[e];
                    if (violation < 0.0)
                        violation = 0.0;
                    terms[e] = violation * violation;
                    scale[e] = penalty_factor * violation;
                }
                value += penalty * (0.0 + pairwise_sum(terms, mc));
            }
            if (ms) {
                for (int e = 0; e < ms; e++)
                    terms[e] = row_dot(vectors + stitch[2 * e] * dim,
                                       vectors + stitch[2 * e + 1] * dim, dim);
                value -= alpha * (0.0 + pairwise_sum(terms, ms));
            }

            /* The gradient, built in tangent: one term per cell at a time,
             * in the block order of the numpy loop's bincount weights. */
            for (size_t k = 0; k < cells; k++)
                tangent[k] = 0.0;
            for (int block = 0; block < 6; block++) {
                int count = block < 4 ? mc : ms;
                const long long *edges = block < 4 ? conflict : stitch;
                int target_end = block % 2; /* 0: first endpoint, 1: second */
                for (int e = 0; e < count; e++) {
                    double *target = tangent + edges[2 * e + target_end] * dim;
                    const double *source =
                        vectors + edges[2 * e + 1 - target_end] * dim;
                    if (block < 2) {
                        for (int j = 0; j < dim; j++)
                            target[j] += source[j];
                    } else {
                        double factor = block < 4 ? scale[e] : minus_alpha;
                        for (int j = 0; j < dim; j++)
                            target[j] += source[j] * factor;
                    }
                }
            }

            /* Project onto the tangent space of each unit sphere. */
            double sum_sq = 0.0;
            for (int i = 0; i < n; i++) {
                double *t = tangent + (size_t)i * dim;
                const double *v = vectors + (size_t)i * dim;
                double radial = row_dot(t, v, dim);
                for (int j = 0; j < dim; j++) {
                    t[j] = t[j] - radial * v[j];
                    sum_sq += t[j] * t[j];
                }
            }
            int decision = grad_norm_decision(sum_sq, n, dim, tolerance);
            if (decision == GRAD_STOP)
                break;
            if (decision == GRAD_UNDECIDED) {
                *iterations = it;
                state[0] = previous;
                state[1] = value;
                return 1;
            }
        }
        resume = 0;

        /* Step, then re-normalise each row. */
        for (int i = 0; i < n; i++) {
            double *v = vectors + (size_t)i * dim;
            const double *t = tangent + (size_t)i * dim;
            for (int j = 0; j < dim; j++) {
                v[j] = v[j] - rate * t[j];
                row[j] = v[j] * v[j];
            }
            double norm = sqrt(0.0 + pairwise_sum(row, dim));
            if (norm == 0.0)
                norm = 1.0;
            for (int j = 0; j < dim; j++)
                v[j] = v[j] / norm;
        }

        if (fabs(previous - value) < 1e-9 * (1.0 + fabs(value)))
            break;
        previous = value;
    }
    *iterations = it;
    state[0] = previous;
    state[1] = value;
    return 0;
}
