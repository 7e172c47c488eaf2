//===--- ToyPrograms.cpp - Input-language benchmark sources --------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "workloads/ToyPrograms.h"

#include "support/Rng.h"

#include <cassert>
#include <cstdio>

using namespace lockin;
using namespace lockin::workloads;

namespace {

// Simple linear-congruential step usable in the toy language.
#define TOY_RNG "int nextRand(int x) { return (x * 1103 + 12345) % 100000; }\n"

const char *ListSource = R"(
struct node { node* next; int key; };
struct list { node* head; };
list* L;
)" TOY_RNG R"(
int insert(list* l, int k) {
  atomic {
    node* prev = null;
    node* cur = l->head;
    while (cur != null && cur->key < k) { prev = cur; cur = cur->next; }
    if (cur != null && cur->key == k) { return 0; }
    node* fresh = new node;
    fresh->key = k;
    fresh->next = cur;
    if (prev == null) { l->head = fresh; } else { prev->next = fresh; }
  }
  return 1;
}
int lookup(list* l, int k) {
  int found = 0;
  atomic {
    node* cur = l->head;
    while (cur != null && cur->key < k) cur = cur->next;
    if (cur != null && cur->key == k) { found = 1; }
  }
  return found;
}
int removeKey(list* l, int k) {
  atomic {
    node* prev = null;
    node* cur = l->head;
    while (cur != null && cur->key < k) { prev = cur; cur = cur->next; }
    if (cur == null || cur->key != k) { return 0; }
    if (prev == null) { l->head = cur->next; } else { prev->next = cur->next; }
  }
  return 1;
}
int count(list* l) {
  int n = 0;
  atomic {
    node* cur = l->head;
    while (cur != null) { n = n + 1; cur = cur->next; }
  }
  return n;
}
void worker(int seed, int ops) {
  int x = seed;
  int i = 0;
  while (i < ops) {
    x = nextRand(x);
    int k = x % 64;
    int kind = x % 6;
    if (kind < 4) { int r = lookup(L, k); }
    else if (kind == 4) { int r = insert(L, k); }
    else { int r = removeKey(L, k); }
    i = i + 1;
  }
}
int main() {
  L = new list;
  int i = 0;
  while (i < 32) { int r = insert(L, i * 2); i = i + 1; }
  spawn worker(7, 150);
  spawn worker(13, 150);
  int n = count(L);
  assert(n >= 0);
  return 0;
}
)";

const char *HashtableSource = R"(
struct hnode { hnode* next; int key; int val; };
struct htab { hnode** buckets; int nbuckets; int size; };
htab* H;
)" TOY_RNG R"(
int hget(htab* t, int k) {
  int found = 0 - 1;
  atomic {
    int slot = k % t->nbuckets;
    hnode* cur = t->buckets[slot];
    while (cur != null) {
      if (cur->key == k) { found = cur->val; cur = null; }
      else { cur = cur->next; }
    }
  }
  return found;
}
void hput(htab* t, int k, int v) {
  atomic {
    int slot = k % t->nbuckets;
    hnode* cur = t->buckets[slot];
    int updated = 0;
    while (cur != null) {
      if (cur->key == k) { cur->val = v; updated = 1; cur = null; }
      else { cur = cur->next; }
    }
    if (updated == 0) {
      hnode* fresh = new hnode;
      fresh->key = k;
      fresh->val = v;
      fresh->next = t->buckets[slot];
      t->buckets[slot] = fresh;
      t->size = t->size + 1;
      if (t->size > 2 * t->nbuckets) {
        int newn = 2 * t->nbuckets;
        hnode** fb = new hnode*[newn];
        int i = 0;
        while (i < t->nbuckets) {
          hnode* c = t->buckets[i];
          while (c != null) {
            hnode* nx = c->next;
            int s2 = c->key % newn;
            c->next = fb[s2];
            fb[s2] = c;
            c = nx;
          }
          i = i + 1;
        }
        t->buckets = fb;
        t->nbuckets = newn;
      }
    }
  }
}
int hremove(htab* t, int k) {
  atomic {
    int slot = k % t->nbuckets;
    hnode* prev = null;
    hnode* cur = t->buckets[slot];
    while (cur != null && cur->key != k) { prev = cur; cur = cur->next; }
    if (cur == null) { return 0; }
    if (prev == null) { t->buckets[slot] = cur->next; }
    else { prev->next = cur->next; }
    t->size = t->size - 1;
  }
  return 1;
}
int hsize(htab* t) {
  int n = 0;
  atomic { n = t->size; }
  return n;
}
void worker(int seed, int ops) {
  int x = seed;
  int i = 0;
  while (i < ops) {
    x = nextRand(x);
    int k = x % 128;
    int kind = x % 6;
    if (kind < 4) { int r = hget(H, k); }
    else if (kind == 4) { hput(H, k, k); }
    else { int r = hremove(H, k); }
    i = i + 1;
  }
}
int main() {
  H = new htab;
  H->nbuckets = 8;
  H->buckets = new hnode*[8];
  H->size = 0;
  int i = 0;
  while (i < 48) { hput(H, i, i); i = i + 1; }
  spawn worker(3, 150);
  spawn worker(11, 150);
  int n = hsize(H);
  assert(n >= 0);
  return 0;
}
)";

const char *Hashtable2Source = R"(
struct hnode { hnode* next; int key; int val; };
struct htab { hnode** buckets; };
htab* H;
)" TOY_RNG R"(
void hput(htab* t, int k, int v) {
  atomic {
    int slot = k % 16;
    hnode* fresh = new hnode;
    fresh->key = k;
    fresh->val = v;
    fresh->next = t->buckets[slot];
    t->buckets[slot] = fresh;
  }
}
int hget(htab* t, int k) {
  int found = 0 - 1;
  atomic {
    int slot = k % 16;
    hnode* cur = t->buckets[slot];
    while (cur != null) {
      if (cur->key == k) { found = cur->val; cur = null; }
      else { cur = cur->next; }
    }
  }
  return found;
}
int hremove(htab* t, int k) {
  atomic {
    int slot = k % 16;
    hnode* prev = null;
    hnode* cur = t->buckets[slot];
    while (cur != null && cur->key != k) { prev = cur; cur = cur->next; }
    if (cur == null) { return 0; }
    if (prev == null) { t->buckets[slot] = cur->next; }
    else { prev->next = cur->next; }
  }
  return 1;
}
int hcontains(htab* t, int k) {
  int found = 0;
  atomic {
    int slot = k % 16;
    hnode* cur = t->buckets[slot];
    while (cur != null && found == 0) {
      if (cur->key == k) { found = 1; }
      cur = cur->next;
    }
  }
  return found;
}
void worker(int seed, int ops) {
  int x = seed;
  int i = 0;
  while (i < ops) {
    x = nextRand(x);
    int k = x % 96;
    int kind = x % 6;
    if (kind < 4) { hput(H, k, k); }
    else if (kind == 4) { int r = hget(H, k); }
    else { int r = hremove(H, k); }
    i = i + 1;
  }
}
int main() {
  H = new htab;
  H->buckets = new hnode*[16];
  int i = 0;
  while (i < 32) { hput(H, i, i); i = i + 1; }
  spawn worker(5, 120);
  spawn worker(9, 120);
  int r = hcontains(H, 4);
  return 0;
}
)";

const char *RbTreeSource = R"(
struct tnode { tnode* left; tnode* right; int key; int val; int red; int dead; };
struct tree { tnode* root; };
tree* T;
)" TOY_RNG R"(
int tput(tree* t, int k, int v) {
  atomic {
    tnode* parent = null;
    tnode* cur = t->root;
    int goleft = 0;
    while (cur != null) {
      if (cur->key == k) {
        cur->dead = 0;
        cur->val = v;
        return 0;
      }
      parent = cur;
      if (k < cur->key) { goleft = 1; cur = cur->left; }
      else { goleft = 0; cur = cur->right; }
    }
    tnode* fresh = new tnode;
    fresh->key = k;
    fresh->val = v;
    fresh->red = 1;
    fresh->dead = 0;
    if (parent == null) { t->root = fresh; fresh->red = 0; }
    else if (goleft == 1) { parent->left = fresh; }
    else { parent->right = fresh; }
  }
  return 1;
}
int tget(tree* t, int k) {
  int found = 0 - 1;
  atomic {
    tnode* cur = t->root;
    while (cur != null) {
      if (cur->key == k) {
        if (cur->dead == 0) { found = cur->val; }
        cur = null;
      } else if (k < cur->key) { cur = cur->left; }
      else { cur = cur->right; }
    }
  }
  return found;
}
int tremove(tree* t, int k) {
  atomic {
    tnode* cur = t->root;
    while (cur != null) {
      if (cur->key == k) {
        if (cur->dead == 1) { return 0; }
        cur->dead = 1;
        return 1;
      }
      if (k < cur->key) { cur = cur->left; } else { cur = cur->right; }
    }
  }
  return 0;
}
int tcount(tree* t) {
  int n = 0;
  atomic {
    tnode* stackTop = null;
    tnode* cur = t->root;
    while (cur != null) {
      if (cur->dead == 0) { n = n + 1; }
      if (cur->left != null) { cur = cur->left; }
      else { cur = cur->right; }
    }
  }
  return n;
}
void worker(int seed, int ops) {
  int x = seed;
  int i = 0;
  while (i < ops) {
    x = nextRand(x);
    int k = x % 128;
    int kind = x % 6;
    if (kind < 4) { int r = tget(T, k); }
    else if (kind == 4) { int r = tput(T, k, k); }
    else { int r = tremove(T, k); }
    i = i + 1;
  }
}
int main() {
  T = new tree;
  int i = 0;
  while (i < 40) { int r = tput(T, (i * 37) % 128, i); i = i + 1; }
  spawn worker(21, 150);
  spawn worker(23, 150);
  int n = tcount(T);
  assert(n >= 0);
  return 0;
}
)";

const char *THSource = R"(
struct tnode { tnode* left; tnode* right; int key; int val; int dead; };
struct tree { tnode* root; };
struct hnode { hnode* next; int key; int val; };
struct htab { hnode** buckets; };
tree* T;
htab* H;
)" TOY_RNG R"(
int tput(tree* t, int k, int v) {
  atomic {
    tnode* parent = null;
    tnode* cur = t->root;
    int goleft = 0;
    while (cur != null) {
      if (cur->key == k) { cur->dead = 0; cur->val = v; return 0; }
      parent = cur;
      if (k < cur->key) { goleft = 1; cur = cur->left; }
      else { goleft = 0; cur = cur->right; }
    }
    tnode* fresh = new tnode;
    fresh->key = k;
    fresh->val = v;
    fresh->dead = 0;
    if (parent == null) { t->root = fresh; }
    else if (goleft == 1) { parent->left = fresh; }
    else { parent->right = fresh; }
  }
  return 1;
}
int tget(tree* t, int k) {
  int found = 0 - 1;
  atomic {
    tnode* cur = t->root;
    while (cur != null) {
      if (cur->key == k) {
        if (cur->dead == 0) { found = cur->val; }
        cur = null;
      } else if (k < cur->key) { cur = cur->left; }
      else { cur = cur->right; }
    }
  }
  return found;
}
int tremove(tree* t, int k) {
  atomic {
    tnode* cur = t->root;
    while (cur != null) {
      if (cur->key == k) {
        if (cur->dead == 1) { return 0; }
        cur->dead = 1;
        return 1;
      }
      if (k < cur->key) { cur = cur->left; } else { cur = cur->right; }
    }
  }
  return 0;
}
void hput(htab* t, int k, int v) {
  atomic {
    int slot = k % 16;
    hnode* fresh = new hnode;
    fresh->key = k;
    fresh->val = v;
    fresh->next = t->buckets[slot];
    t->buckets[slot] = fresh;
  }
}
int hget(htab* t, int k) {
  int found = 0 - 1;
  atomic {
    int slot = k % 16;
    hnode* cur = t->buckets[slot];
    while (cur != null) {
      if (cur->key == k) { found = cur->val; cur = null; }
      else { cur = cur->next; }
    }
  }
  return found;
}
int hremove(htab* t, int k) {
  atomic {
    int slot = k % 16;
    hnode* prev = null;
    hnode* cur = t->buckets[slot];
    while (cur != null && cur->key != k) { prev = cur; cur = cur->next; }
    if (cur == null) { return 0; }
    if (prev == null) { t->buckets[slot] = cur->next; }
    else { prev->next = cur->next; }
  }
  return 1;
}
int stats() {
  int a = 0;
  atomic { if (T->root != null) { a = a + 1; } }
  return a;
}
void worker(int seed, int ops) {
  int x = seed;
  int i = 0;
  while (i < ops) {
    x = nextRand(x);
    int k = x % 128;
    int kind = x % 6;
    if (k % 2 == 0) {
      if (kind < 4) { int r = tget(T, k); }
      else if (kind == 4) { int r = tput(T, k, k); }
      else { int r = tremove(T, k); }
    } else {
      if (kind < 4) { int r = hget(H, k); }
      else if (kind == 4) { hput(H, k, k); }
      else { int r = hremove(H, k); }
    }
    i = i + 1;
  }
}
int main() {
  T = new tree;
  H = new htab;
  H->buckets = new hnode*[16];
  int i = 0;
  while (i < 40) {
    if (i % 2 == 0) { int r = tput(T, i, i); } else { hput(H, i, i); }
    i = i + 1;
  }
  spawn worker(31, 150);
  spawn worker(37, 150);
  int s = stats();
  return 0;
}
)";

const char *GenomeSource = R"(
struct seg { seg* next; int id; };
struct pool { seg** buckets; int unique; };
struct chain { seg* first; int len; };
pool* P;
chain* C;
)" TOY_RNG R"(
int dedup(pool* p, int id) {
  atomic {
    int slot = id % 32;
    seg* cur = p->buckets[slot];
    while (cur != null) {
      if (cur->id == id) { return 0; }
      cur = cur->next;
    }
    seg* fresh = new seg;
    fresh->id = id;
    fresh->next = p->buckets[slot];
    p->buckets[slot] = fresh;
    p->unique = p->unique + 1;
  }
  return 1;
}
int uniqueCount(pool* p) {
  int n = 0;
  atomic { n = p->unique; }
  return n;
}
void link(chain* c, pool* p, int id) {
  atomic {
    int slot = id % 32;
    seg* cur = p->buckets[slot];
    while (cur != null && cur->id != id) cur = cur->next;
    if (cur != null) {
      c->len = c->len + 1;
    }
  }
}
int chainLen(chain* c) {
  int n = 0;
  atomic { n = c->len; }
  return n;
}
void resetChain(chain* c) {
  atomic { c->first = null; c->len = 0; }
}
void worker(int seed, int ops) {
  int x = seed;
  int i = 0;
  while (i < ops) {
    x = nextRand(x);
    int r = dedup(P, x % 200);
    if (i % 4 == 0) { link(C, P, x % 200); }
    i = i + 1;
  }
}
int main() {
  P = new pool;
  P->buckets = new seg*[32];
  P->unique = 0;
  C = new chain;
  resetChain(C);
  spawn worker(41, 150);
  spawn worker(43, 150);
  int u = uniqueCount(P);
  int l = chainLen(C);
  assert(u >= 0);
  return 0;
}
)";

const char *VacationSource = R"(
struct rec { rec* next; int id; int stock; };
struct rel { rec* rows; int revision; };
rel* Cars;
rel* Rooms;
)" TOY_RNG R"(
int reserve(rel* r, int id) {
  atomic {
    rec* cur = r->rows;
    while (cur != null && cur->id != id) cur = cur->next;
    if (cur == null) { return 0; }
    if (cur->stock < 1) { return 0; }
    cur->stock = cur->stock - 1;
    r->revision = r->revision + 1;
  }
  return 1;
}
int totalStock(rel* r) {
  int n = 0;
  atomic {
    rec* cur = r->rows;
    while (cur != null) { n = n + cur->stock; cur = cur->next; }
  }
  return n;
}
void addRow(rel* r, int id, int stock) {
  atomic {
    rec* fresh = new rec;
    fresh->id = id;
    fresh->stock = stock;
    fresh->next = r->rows;
    r->rows = fresh;
  }
}
void customer(int seed, int ops) {
  int x = seed;
  int i = 0;
  while (i < ops) {
    x = nextRand(x);
    if (x % 2 == 0) { int r = reserve(Cars, x % 16); }
    else { int r = reserve(Rooms, x % 16); }
    i = i + 1;
  }
}
int main() {
  Cars = new rel;
  Rooms = new rel;
  int i = 0;
  while (i < 16) {
    addRow(Cars, i, 50);
    addRow(Rooms, i, 50);
    i = i + 1;
  }
  spawn customer(51, 120);
  spawn customer(53, 120);
  int c = totalStock(Cars);
  int r = totalStock(Rooms);
  assert(c >= 0 && r >= 0);
  return 0;
}
)";

const char *KmeansSource = R"(
struct center { int* sums; int count; };
struct model { center** centers; int k; };
model* M;
)" TOY_RNG R"(
void accumulate(model* m, int cluster, int v0, int v1) {
  atomic {
    center* c = m->centers[cluster];
    c->sums[0] = c->sums[0] + v0;
    c->sums[1] = c->sums[1] + v1;
    c->count = c->count + 1;
  }
}
int clusterCount(model* m, int cluster) {
  int n = 0;
  atomic {
    center* c = m->centers[cluster];
    n = c->count;
  }
  return n;
}
int totalCount(model* m) {
  int n = 0;
  atomic {
    int i = 0;
    while (i < m->k) {
      center* c = m->centers[i];
      n = n + c->count;
      i = i + 1;
    }
  }
  return n;
}
void worker(int seed, int points) {
  int x = seed;
  int i = 0;
  while (i < points) {
    x = nextRand(x);
    accumulate(M, x % 8, x % 100, (x / 7) % 100);
    i = i + 1;
  }
}
int main() {
  M = new model;
  M->k = 8;
  M->centers = new center*[8];
  int i = 0;
  while (i < 8) {
    center* c = new center;
    c->sums = new int[2];
    c->count = 0;
    M->centers[i] = c;
    i = i + 1;
  }
  spawn worker(61, 200);
  spawn worker(67, 200);
  int n = totalCount(M);
  assert(n >= 0);
  return 0;
}
)";

const char *BayesSource = R"(
struct vnode { int* counts; int degree; };
struct net { vnode** vars; int n; };
net* N;
)" TOY_RNG R"(
int score(net* g, int a) {
  int s = 0;
  atomic {
    vnode* v = g->vars[a];
    int i = 0;
    while (i < g->n) { s = s + v->counts[i]; i = i + 1; }
  }
  return s;
}
void addEdge(net* g, int a, int b) {
  atomic {
    vnode* v = g->vars[a];
    v->counts[b] = v->counts[b] + 1;
    v->degree = v->degree + 1;
  }
}
void dropEdge(net* g, int a, int b) {
  atomic {
    vnode* v = g->vars[a];
    if (v->counts[b] > 0) {
      v->counts[b] = v->counts[b] - 1;
      v->degree = v->degree - 1;
    }
  }
}
int degree(net* g, int a) {
  int d = 0;
  atomic {
    vnode* v = g->vars[a];
    d = v->degree;
  }
  return d;
}
int edges(net* g) {
  int e = 0;
  atomic {
    int i = 0;
    while (i < g->n) {
      vnode* v = g->vars[i];
      e = e + v->degree;
      i = i + 1;
    }
  }
  return e;
}
void swapEdge(net* g, int a, int b, int c) {
  atomic {
    vnode* v = g->vars[a];
    if (v->counts[b] > 0) {
      v->counts[b] = v->counts[b] - 1;
      v->counts[c] = v->counts[c] + 1;
    }
  }
}
int bestVar(net* g) {
  int best = 0;
  atomic {
    int i = 0;
    int bestScore = 0 - 1;
    while (i < g->n) {
      vnode* v = g->vars[i];
      if (v->degree > bestScore) { bestScore = v->degree; best = i; }
      i = i + 1;
    }
  }
  return best;
}
void learner(int seed, int steps) {
  int x = seed;
  int i = 0;
  while (i < steps) {
    x = nextRand(x);
    int a = x % 12;
    int b = (x / 13) % 12;
    int s = score(N, a);
    if (s % 3 == 0) { addEdge(N, a, b); }
    else if (s % 3 == 1) { dropEdge(N, a, b); }
    else { swapEdge(N, a, b, (b + 1) % 12); }
    i = i + 1;
  }
}
int main() {
  N = new net;
  N->n = 12;
  N->vars = new vnode*[12];
  int i = 0;
  while (i < 12) {
    vnode* v = new vnode;
    v->counts = new int[12];
    v->degree = 0;
    N->vars[i] = v;
    i = i + 1;
  }
  spawn learner(71, 120);
  spawn learner(73, 120);
  int e = edges(N);
  int b = bestVar(N);
  assert(e >= 0);
  return 0;
}
)";

const char *LabyrinthSource = R"(
struct grid { int* cells; int side; };
grid* G;
)" TOY_RNG R"(
int route(grid* g, int x, int y, int len) {
  atomic {
    int free = 1;
    int i = 0;
    while (i < len) {
      if (g->cells[y * g->side + x + i] != 0) { free = 0; }
      i = i + 1;
    }
    if (free == 1) {
      i = 0;
      while (i < len) {
        g->cells[y * g->side + x + i] = 1;
        i = i + 1;
      }
      return 1;
    }
  }
  return 0;
}
int used(grid* g) {
  int n = 0;
  atomic {
    int i = 0;
    int total = g->side * g->side;
    while (i < total) {
      if (g->cells[i] != 0) { n = n + 1; }
      i = i + 1;
    }
  }
  return n;
}
void clearCell(grid* g, int x, int y) {
  atomic { g->cells[y * g->side + x] = 0; }
}
void router(int seed, int routes) {
  int x = seed;
  int i = 0;
  while (i < routes) {
    x = nextRand(x);
    int r = route(G, x % 8, (x / 11) % 16, 4);
    i = i + 1;
  }
}
int main() {
  G = new grid;
  G->side = 16;
  G->cells = new int[256];
  spawn router(81, 60);
  spawn router(83, 60);
  int n = used(G);
  assert(n >= 0);
  return 0;
}
)";

std::vector<ToyProgram> buildPrograms() {
  return {
      {"vacation", VacationSource, "vacation"},
      {"genome", GenomeSource, "genome"},
      {"kmeans", KmeansSource, "kmeans"},
      {"bayes", BayesSource, "bayes"},
      {"labyrinth", LabyrinthSource, "labyrinth"},
      {"hashtable", HashtableSource, "hashtable"},
      {"rbtree", RbTreeSource, "rbtree"},
      {"list", ListSource, "list"},
      {"hashtable-2", Hashtable2Source, "hashtable-2"},
      {"TH", THSource, "TH"},
  };
}

} // namespace

const std::vector<ToyProgram> &lockin::workloads::concurrentToyPrograms() {
  static const std::vector<ToyProgram> Programs = buildPrograms();
  return Programs;
}

const ToyProgram &lockin::workloads::toyProgram(const std::string &Name) {
  for (const ToyProgram &P : concurrentToyPrograms())
    if (P.Name == Name)
      return P;
  assert(false && "unknown toy program");
  static ToyProgram Dummy;
  return Dummy;
}

std::string lockin::workloads::generateSyntheticSpec(unsigned TargetKloc,
                                                     uint64_t Seed) {
  Rng R(Seed);
  std::string Out;
  Out.reserve(TargetKloc * 1000 * 30);

  // Struct zoo: recursive types whose link field points to the previous
  // struct (struct names must be declared before use).
  constexpr unsigned NumStructs = 4;
  for (unsigned S = 0; S < NumStructs; ++S) {
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "struct S%u { S%u* next; S%u* link; int* data; int val; "
                  "};\n",
                  S, S, S == 0 ? 0 : S - 1);
    Out += Buf;
  }
  // Shared globals the functions traffic through.
  for (unsigned G = 0; G < NumStructs; ++G) {
    Out += 'S';
    Out += std::to_string(G) + "* g" + std::to_string(G) + ";\n";
  }
  Out += "int gcounter;\n\n";

  // Each function is ~22 lines; derive the count from the target size.
  unsigned NumFuncs = TargetKloc * 1000 / 22;
  if (NumFuncs < 4)
    NumFuncs = 4;

  std::vector<unsigned> FuncStruct(NumFuncs);
  std::vector<std::vector<unsigned>> ByStruct(NumStructs);

  for (unsigned F = 0; F < NumFuncs; ++F) {
    unsigned SIn = static_cast<unsigned>(R.below(NumStructs));
    FuncStruct[F] = SIn;
    std::string SName = 'S' + std::to_string(SIn);
    std::string LName = 'S' + std::to_string(SIn == 0 ? 0 : SIn - 1);
    std::string FName = 'f' + std::to_string(F);
    Out += SName + "* " + FName + "(" + SName + "* p, int n) {\n";
    Out += "  " + SName + "* cur = p;\n";
    Out += "  int i = 0;\n";
    Out += "  while (i < n && cur != null) {\n";
    Out += "    cur = cur->next;\n";
    Out += "    i = i + 1;\n";
    Out += "  }\n";
    Out += "  if (cur != null) {\n";
    Out += "    " + LName + "* other = cur->link;\n";
    Out += "    if (other != null) { other->val = n; }\n";
    Out += "    cur->val = cur->val + 1;\n";
    Out += "    if (cur->data != null) { cur->data[n % 4] = n; }\n";
    Out += "  }\n";
    if (R.chance(1, 3)) {
      Out += "  if (n % 7 == 0) {\n";
      Out += "    " + SName + "* fresh = new " + SName + ";\n";
      Out += "    fresh->next = p;\n";
      Out += "    fresh->val = n;\n";
      Out += "    cur = fresh;\n";
      Out += "  }\n";
    } else {
      Out += "  gcounter = gcounter + 1;\n";
      Out += "  if (gcounter % 11 == 0) { g" + std::to_string(SIn) +
             " = cur; }\n";
    }
    // Calls to up to two earlier functions over the same struct type keep
    // the call graph deep; the decreasing argument bounds real recursion.
    const std::vector<unsigned> &Earlier = ByStruct[SIn];
    for (unsigned CallIdx = 0; CallIdx < 2 && !Earlier.empty(); ++CallIdx) {
      unsigned Callee = Earlier[R.below(Earlier.size())];
      Out += "  if (n > " + std::to_string(CallIdx + 1) +
             ") { cur = f" + std::to_string(Callee) + "(cur, n - 1); }\n";
    }
    Out += "  return cur;\n";
    Out += "}\n\n";
    ByStruct[SIn].push_back(F);
  }

  // main wraps the whole workload in one atomic section, as the paper
  // does with the SPEC programs.
  Out += "int main() {\n";
  for (unsigned G = 0; G < NumStructs; ++G)
    Out += "  g" + std::to_string(G) + " = new S" + std::to_string(G) +
           ";\n";
  Out += "  atomic {\n";
  unsigned Calls = NumFuncs < 8 ? NumFuncs : 8;
  for (unsigned I = 0; I < Calls; ++I) {
    unsigned F = NumFuncs - 1 - I;
    unsigned SIn = FuncStruct[F];
    Out += "    S" + std::to_string(SIn) + "* r" + std::to_string(I) +
           " = f" + std::to_string(F) + "(g" + std::to_string(SIn) +
           ", 25);\n";
  }
  Out += "    gcounter = gcounter + 1;\n";
  Out += "  }\n";
  Out += "  return gcounter;\n";
  Out += "}\n";
  return Out;
}

std::vector<std::string> workloads::syntaxSeedSources() {
  std::vector<std::string> Sources;
  for (const ToyProgram &P : concurrentToyPrograms())
    Sources.push_back(P.Source);
  return Sources;
}
